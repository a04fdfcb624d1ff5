#pragma once

#include "homme/state.hpp"
#include "mesh/cubed_sphere.hpp"

/// \file hypervis.hpp
/// The horizontal dissipation kernels of Table 1:
///   hypervis_dp1     — regular (nabla^2) viscosity on momentum and T
///   hypervis_dp2     — hyper (nabla^4) viscosity on momentum and T
///   biharmonic_dp3d  — weak biharmonic operator on the layer thickness
///
/// nabla^2 is the strong-form spectral Laplacian followed by DSS; the
/// biharmonic applies it twice with a DSS in between. Vector fields are
/// dissipated component-wise in Cartesian 3-space (coordinate-free across
/// cube faces) and projected back.

namespace homme {

class Exchange;

/// Apply s <- s + dt * nu * Laplacian(s) to a multi-level scalar field
/// given by per-element pointers over \p x's elements. One DSS at the
/// end.
void laplacian_update(const Exchange& x, int nlev,
                      std::span<double* const> field, double coef);

/// Compute the biharmonic nabla^4 of a scalar field into \p out (per-
/// element pointers); DSS applied between and after the two Laplacians.
void biharmonic_scalar(const Exchange& x, int nlev,
                       std::span<double* const> field,
                       std::span<double* const> out);

/// Table 1 "hypervis dp1": u, T <- u, T + dt*nu*Lap(u, T), over \p x's
/// elements with every DSS through \p x.
void hypervis_dp1(const Exchange& x, const Dims& d, State& s, double nu,
                  double dt);

/// Table 1 "hypervis dp2": u, T <- u, T - dt*nu*Lap(Lap(u, T)), over
/// \p x's elements with every DSS through \p x.
void hypervis_dp2(const Exchange& x, const Dims& d, State& s, double nu,
                  double dt);

/// Table 1 "biharmonic dp3d": dp <- dp - dt*nu*Lap(Lap(dp)).
void biharmonic_dp3d(const Exchange& x, const Dims& d, State& s, double nu,
                     double dt);

}  // namespace homme
