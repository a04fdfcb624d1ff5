#pragma once

#include <span>

#include "homme/state.hpp"
#include "mesh/cubed_sphere.hpp"

/// \file ref_kernels.hpp
/// homme::ref — the frozen scalar reference implementations of the host
/// hot kernels, exactly as they were before the vectorized/arena rewrite
/// (per-call std::vector temporaries and all).
///
/// They exist for two reasons:
///   - tests pin the vectorized kernels against them (bit-identical or
///     1e-12-bounded across ne/nlev/moist configurations), and
///   - bench_host_kernels measures the rewrite's speedup against the
///     genuine old path, allocation churn included, rather than against
///     a strawman.
/// Nothing in the model itself may call homme::ref::*.

namespace homme::ref {

/// Scalar spherical tile operators (the originals of ops.cpp's
/// deriv_ref, divergence_sphere, vorticity_sphere and laplace_sphere_wk).
void deriv_ref(const double* s, double* d1, double* d2);
void divergence_sphere(const mesh::ElementGeom& g, const double* u1,
                       const double* u2, double* div);
void vorticity_sphere(const mesh::ElementGeom& g, const double* u1,
                      const double* u2, double* vort);
void laplace_sphere_wk(const mesh::ElementGeom& g, const double* s,
                       double* lap);

/// Scalar rotations and Coriolis term (the originals of ops.cpp's
/// contra_to_cart, cart_to_contra and coriolis_vorticity_term, reading
/// the frame's component tiles).
void contra_to_cart(const mesh::ElementGeom& g, const double* u1,
                    const double* u2, double* ux, double* uy, double* uz);
void cart_to_contra(const mesh::ElementGeom& g, const double* ux,
                    const double* uy, const double* uz, double* u1,
                    double* u2);
void coriolis_vorticity_term(const mesh::ElementGeom& g,
                             const double* absvort, const double* u1,
                             const double* u2, double* t1, double* t2);

/// Scalar column scans (the originals of rhs.cpp's scans).
void column_pressure(int nlev, const double* dp, double* p_mid);
void column_geopotential(int nlev, const double* T, const double* dp,
                         const double* p_mid, const double* phis,
                         double* phi_mid);
void column_omega(int nlev, const double* divdp, double* omega);

/// Scalar whole-mesh DSS (the original of dss.cpp's dss_levels: a
/// per-(element, level, point) indirect scatter into the node
/// accumulator).
void dss_levels(const mesh::CubedSphere& m,
                std::span<double* const> elem_fields, int nlev);

/// Scalar whole-mesh vector DSS: rotate every element to three Cartesian
/// fields, run the scalar DSS on each, rotate back (the original of
/// dss.cpp's dss_vector_levels, with the scalar rotations above).
void dss_vector_levels(const mesh::CubedSphere& m,
                       std::span<double* const> u1,
                       std::span<double* const> u2, int nlev);

/// Scalar element_rhs with per-call vector temporaries (no DSS); its
/// operators and Coriolis term are the scalar ones above.
void element_rhs(const mesh::ElementGeom& g, const Dims& d,
                 const ElementState& eval, ElementTend& tend);

/// Scalar compute_and_apply_rhs (element_rhs + update + the scalar DSS).
void compute_and_apply_rhs(const mesh::CubedSphere& m, const Dims& d,
                           const State& base, const State& eval, double dt,
                           State& out);

/// Scalar conservative column remap (per-call vector temporaries).
void remap_column(std::span<const double> src_dp,
                  std::span<const double> tgt_dp, std::span<double> q);

/// Scalar whole-state vertical remap (per-column gathers through
/// remap_column above).
void vertical_remap_local(const Dims& d, State& s);

/// Scalar SSP-RK3 tracer advection with per-call vector temporaries and
/// the scalar whole-mesh DSS above; its divergence is the scalar one above (the
/// positivity limiter was never vectorized and is shared).
void euler_step(const mesh::CubedSphere& m, const Dims& d, State& s,
                double dt, bool limit = true);

}  // namespace homme::ref
