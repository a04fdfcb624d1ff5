#pragma once

#include "homme/state.hpp"
#include "mesh/cubed_sphere.hpp"

/// \file hypervis.hpp
/// The horizontal dissipation kernels of Table 1 the dycore steps:
///   hypervis_dp2     — hyper (nabla^4) viscosity on momentum and T
///   biharmonic_dp3d  — weak biharmonic operator on the layer thickness
/// (Table 1's hypervis_dp1 row, a single nabla^2, is the CPE port's
/// accel::HvKernel::kDp1.)
///
/// nabla^2 is the weak-form spectral Laplacian followed by DSS; the
/// biharmonic applies it twice with a DSS in between, the second
/// application written over the first, so a biharmonic draws one scratch
/// field from the arena. Vector fields are dissipated component-wise in
/// Cartesian 3-space (coordinate-free across cube faces) and projected
/// back.

namespace homme {

class Exchange;

/// Table 1 "hypervis dp2": u, T <- u, T - dt*nu*Lap(Lap(u, T)), over
/// \p x's elements with every DSS through \p x. The Cartesian wind (ux,
/// uy, uz) lives in \p work's u1, u2 and T chunks, which it overwrites;
/// \p work covers the same elements as \p s (the Dycore passes its idle
/// stage buffer).
void hypervis_dp2(const Exchange& x, const Dims& d, State& s, State& work,
                  double nu, double dt);

/// Table 1 "biharmonic dp3d": dp <- dp - dt*nu*Lap(Lap(dp)).
void biharmonic_dp3d(const Exchange& x, const Dims& d, State& s, double nu,
                     double dt);

}  // namespace homme
