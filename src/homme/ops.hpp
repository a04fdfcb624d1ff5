#pragma once

#include "mesh/geometry.hpp"

/// \file ops.hpp
/// Per-element spectral operators on one level tile (16 GLL values).
///
/// These are the arithmetic hearts of the Table 1 kernels: gradient,
/// divergence, vorticity and Laplacian on the cubed sphere, built from
/// the GLL collocation derivative and the element metric terms. Wind is
/// carried in contravariant components; conversions to Cartesian 3-space
/// (for DSS across faces and for Coriolis cross products) use the
/// covariant/dual bases stored in ElementGeom.
///
/// deriv_ref, divergence_sphere, vorticity_sphere, laplace_sphere_wk,
/// the two rotations and the Coriolis term are vectorized (vpack lanes
/// over a tile row, or over the whole tile for the pointwise ones) and
/// bit-identical to their scalar bodies, which are frozen in homme::ref.
///
/// The metric operators read their tiles through a MetricView and the
/// rotations through a FrameView, so one library serves the host kernels
/// (which pass a mesh::ElementGeom) and the CPE ports (which pass the
/// tiles staged in LDM from a packed geometry block). The ports charge
/// their modeled flops at the call site; the arithmetic is this file's
/// either way.

namespace homme {

/// The metric tiles the spherical operators read, 16 doubles each in gidx
/// order. Converts implicitly from a mesh::ElementGeom; a block of
/// consecutive tiles in member order (jac, ginv11, ginv12, ginv22, g11,
/// g12, g22 — the leading tiles of accel's packed geometry) provides its
/// first \p ntiles. An operator reads only the tiles it names, so a view
/// may leave the others null: divergence needs jac; the gradient adds
/// ginv, and so does the weak Laplacian; vorticity needs jac and g.
struct MetricView {
  const double* jac = nullptr;
  const double* ginv11 = nullptr;
  const double* ginv12 = nullptr;
  const double* ginv22 = nullptr;
  const double* g11 = nullptr;
  const double* g12 = nullptr;
  const double* g22 = nullptr;

  // Implicit, so host call sites pass the geometry unchanged.
  MetricView(const mesh::ElementGeom& g)
      : jac(g.jac.data()),
        ginv11(g.ginv11.data()),
        ginv12(g.ginv12.data()),
        ginv22(g.ginv22.data()),
        g11(g.g11.data()),
        g12(g.g12.data()),
        g22(g.g22.data()) {}
  MetricView(const double* tiles, int ntiles);
};

/// Reference-element derivatives of a scalar tile:
/// d1 = ds/dx, d2 = ds/dy (x along gidx's fast axis).
void deriv_ref(const double* s, double* d1, double* d2);

/// Contravariant gradient on the sphere: grad^i = ginv^{ij} ds/dxi_j.
void gradient_sphere(const MetricView& g, const double* s, double* g1,
                     double* g2);

/// Covariant gradient (plain reference derivatives), exposed for the
/// pressure-gradient term which contracts with ginv separately.
void gradient_covariant(const double* s, double* d1, double* d2);

/// Divergence of a contravariant vector: (1/J)(d(J u1)/dx + d(J u2)/dy).
void divergence_sphere(const MetricView& g, const double* u1,
                       const double* u2, double* div);

/// Relative vorticity of a contravariant vector:
/// (1/J)(d(g_2j u^j)/dx - d(g_1j u^j)/dy).
void vorticity_sphere(const MetricView& g, const double* u1,
                      const double* u2, double* vort);

/// Weak-form scalar Laplacian, divided by the local GLL mass. After a
/// mass-weighted DSS the global integral of the result telescopes to
/// exactly zero, so hyperviscosity built on this operator conserves mass
/// to roundoff — the property HOMME's laplace_sphere_wk provides.
/// \p lap may be \p s: the operator reads the tile whole before it writes
/// one value, which is how a biharmonic writes its second Laplacian over
/// its first. Never mark these two pointers __restrict.
void laplace_sphere_wk(const MetricView& g, const double* s,
                       double* lap);

/// The element frame the rotations and the Coriolis term read: five
/// 3-vectors per GLL point, each as its x, y and z component tiles (16
/// doubles each). Converts implicitly from a mesh::ElementGeom; a block
/// of 15 consecutive tiles in member order (accel's packed kA1X..kRhatZ)
/// provides it too.
struct FrameView {
  const double* a1[3];    ///< covariant basis
  const double* a2[3];
  const double* b1[3];    ///< dual basis
  const double* b2[3];
  const double* rhat[3];  ///< outward unit normal

  // Implicit, so host call sites pass the geometry unchanged.
  FrameView(const mesh::ElementGeom& g) {
    for (int d = 0; d < 3; ++d) {
      a1[d] = g.a1[d].data();
      a2[d] = g.a2[d].data();
      b1[d] = g.b1[d].data();
      b2[d] = g.b2[d].data();
      rhat[d] = g.rhat[d].data();
    }
  }
  explicit FrameView(const double* tiles) {
    for (int d = 0; d < 3; ++d) {
      a1[d] = tiles + d * mesh::kNpp;
      a2[d] = tiles + (3 + d) * mesh::kNpp;
      b1[d] = tiles + (6 + d) * mesh::kNpp;
      b2[d] = tiles + (9 + d) * mesh::kNpp;
      rhat[d] = tiles + (12 + d) * mesh::kNpp;
    }
  }
};

/// Convert a contravariant vector tile to Cartesian 3-vectors
/// U = u1 * a1 + u2 * a2 (tangent to the sphere).
void contra_to_cart(const FrameView& f, const double* u1, const double* u2,
                    double* ux, double* uy, double* uz);

/// Project Cartesian vectors back to contravariant components via the
/// dual basis: u^i = U . b_i.
void cart_to_contra(const FrameView& f, const double* ux, const double* uy,
                    const double* uz, double* u1, double* u2);

/// (zeta+f) * (r_hat x U) expressed in contravariant components; used by
/// the vector-invariant momentum equation. \p absvort holds zeta+f.
void coriolis_vorticity_term(const FrameView& f, const double* absvort,
                             const double* u1, const double* u2, double* t1,
                             double* t2);

}  // namespace homme
