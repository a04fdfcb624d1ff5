#pragma once

#include <span>
#include <vector>

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

/// Dynamics tendencies (d/dt of u1, u2, T, dp) of one element, as plain
/// vectors: the reference element_rhs's output.
struct ElementTend {
  std::vector<double> u1, u2, T, dp;

  ElementTend() = default;
  explicit ElementTend(const Dims& d)
      : u1(d.field_size(), 0.0),
        u2(d.field_size(), 0.0),
        T(d.field_size(), 0.0),
        dp(d.field_size(), 0.0) {}
};

/// The per-element pointer table of a member field, as a vector. DSS
/// writes in place, so this takes the write path: each chunk is un-shared
/// (COW) up front if a forked member still aliases it.
template <typename StateVec, typename Member>
std::vector<double*> field_ptrs(StateVec& state, Member member) {
  std::vector<double*> p;
  p.reserve(state.size());
  for (auto& es : state) p.push_back((es.*member).mutable_span().data());
  return p;
}

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

/// Scalar whole-mesh DSS (the original of the DSS BndryExchange runs
/// through dss.cpp's element body: a per-(element, level, point)
/// indirect scatter into the node accumulator).
void dss_levels(const mesh::CubedSphere& m,
                std::span<double* const> elem_fields, int nlev);

/// Scalar whole-mesh vector DSS: rotate every element to three Cartesian
/// fields, run the scalar DSS on each, rotate back (the original of
/// BndryExchange::dss_vector_levels, with the scalar rotations above).
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

/// Scalar element positivity limiter, one level at a time (the original
/// of euler.cpp's positivity_limiter).
void positivity_limiter(const mesh::ElementGeom& g, int nlev,
                        std::span<double> qdp);

/// Scalar SSP-RK3 tracer advection with per-call vector temporaries and
/// the scalar whole-mesh DSS above; its divergence and limiter are the
/// scalar ones above.
void euler_step(const mesh::CubedSphere& m, const Dims& d, State& s,
                double dt, bool limit = true);

}  // namespace homme::ref
