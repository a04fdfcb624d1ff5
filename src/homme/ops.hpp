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
/// deriv_ref, divergence_sphere, vorticity_sphere and laplace_sphere_wk
/// are vectorized (vpack lanes over a tile row) and bit-identical to
/// their scalar bodies, which are frozen in homme::ref.

namespace homme {

/// Reference-element derivatives of a scalar tile:
/// d1 = ds/dx, d2 = ds/dy (x along gidx's fast axis).
void deriv_ref(const double* s, double* d1, double* d2);

/// Contravariant gradient on the sphere: grad^i = ginv^{ij} ds/dxi_j.
void gradient_sphere(const mesh::ElementGeom& g, const double* s, double* g1,
                     double* g2);

/// Covariant gradient (plain reference derivatives), exposed for the
/// pressure-gradient term which contracts with ginv separately.
void gradient_covariant(const double* s, double* d1, double* d2);

/// Divergence of a contravariant vector: (1/J)(d(J u1)/dx + d(J u2)/dy).
void divergence_sphere(const mesh::ElementGeom& g, const double* u1,
                       const double* u2, double* div);

/// Relative vorticity of a contravariant vector:
/// (1/J)(d(g_2j u^j)/dx - d(g_1j u^j)/dy).
void vorticity_sphere(const mesh::ElementGeom& g, const double* u1,
                      const double* u2, double* vort);

/// Strong-form scalar Laplacian div(grad s).
void laplace_sphere(const mesh::ElementGeom& g, const double* s, double* lap);

/// Weak-form scalar Laplacian, divided by the local GLL mass. After a
/// mass-weighted DSS the global integral of the result telescopes to
/// exactly zero, so hyperviscosity built on this operator conserves mass
/// to roundoff — the property HOMME's laplace_sphere_wk provides.
void laplace_sphere_wk(const mesh::ElementGeom& g, const double* s,
                       double* lap);

/// Convert a contravariant vector tile to Cartesian 3-vectors
/// U = u1 * a1 + u2 * a2 (tangent to the sphere).
void contra_to_cart(const mesh::ElementGeom& g, const double* u1,
                    const double* u2, double* ux, double* uy, double* uz);

/// Project Cartesian vectors back to contravariant components via the
/// dual basis: u^i = U . b_i.
void cart_to_contra(const mesh::ElementGeom& g, const double* ux,
                    const double* uy, const double* uz, double* u1,
                    double* u2);

/// (zeta+f) * (r_hat x U) expressed in contravariant components; used by
/// the vector-invariant momentum equation. \p absvort holds zeta+f.
void coriolis_vorticity_term(const mesh::ElementGeom& g,
                             const double* absvort, const double* u1,
                             const double* u2, double* t1, double* t2);

}  // namespace homme
