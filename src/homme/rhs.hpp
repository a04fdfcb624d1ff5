#pragma once

#include "homme/ops.hpp"
#include "homme/state.hpp"
#include "mesh/cubed_sphere.hpp"

/// \file rhs.hpp
/// compute_and_apply_rhs — the first key kernel of Table 1: "compute the
/// RHS (right hand side), accumulate into velocity and apply DSS".
///
/// The dynamical core solves the hydrostatic primitive equations in
/// vector-invariant form on floating Lagrangian levels:
///   du/dt  = -(zeta + f) r_hat x u - grad(KE + Phi) - (R T / p) grad p
///   dT/dt  = -u . grad T + kappa T omega / p
///   ddp/dt = -div(dp u)
/// Pressure and geopotential are vertical scans over the 128 layers (the
/// data dependence that section 7.4 parallelizes with register
/// communication); omega is a third scan over the accumulated divergence.

namespace homme {

class Exchange;

/// Mid-level pressure from layer thickness: one 16-wide exclusive scan
/// down the column plus dp/2. Tiles in fidx layout.
void column_pressure(int nlev, const double* dp, double* p_mid);

/// Mid-level geopotential: hydrostatic integral from the surface up
/// (16-wide scan in the opposite direction).
void column_geopotential(int nlev, const double* T, const double* dp,
                         const double* p_mid, const double* phis,
                         double* phi_mid);

/// Pressure vertical velocity omega = Dp/Dt at mid levels from the
/// accumulated horizontal mass-flux divergence (exclusive scan down).
void column_omega(int nlev, const double* divdp, double* omega);

/// One element's dynamics tendencies (d/dt of u1, u2, T, dp): four
/// field_size() blocks in fidx layout that the caller owns.
struct TendView {
  double* u1;
  double* u2;
  double* T;
  double* dp;
};

/// One level of element_rhs, on level tiles (16 doubles each): vorticity,
/// kinetic energy, the gradients, the Coriolis term, the u1/u2/T
/// tendencies (T's before the omega correction) and the mass-flux
/// divergence \p divdp (the dp tendency is -divdp). The pressure-gradient
/// term reads the virtual temperature \p Tv, the advection \p T; a dry
/// caller passes T for both. The metric and frame tiles and the Coriolis
/// tile \p cor may come from a mesh::ElementGeom or from a packed or
/// LDM-staged geometry block, so the host loop and the CPE ports run this
/// one body.
void rhs_level(const MetricView& g, const FrameView& f, const double* cor,
               const double* u1, const double* u2, const double* T,
               const double* Tv, const double* dp, const double* p_mid,
               const double* phi_mid, double* tu1, double* tu2, double* tT,
               double* divdp);

/// Evaluate the RHS of one element into \p tend (no DSS); every value of
/// \p tend is written.
void element_rhs(const mesh::ElementGeom& g, const Dims& d,
                 const ElementState& eval, const TendView& tend);

/// out = in + dt * RHS(in) over \p x's elements, then DSS through \p x
/// on u (as a vector field), T and dp — the full Table 1 kernel. \p out
/// may be \p in: an element's tendency reads only that element and is
/// complete before its update is written, and every DSS runs after the
/// element loop, so the update in place has the bits of a separate out.
void compute_and_apply_rhs(const Exchange& x, const Dims& d, const State& in,
                           double dt, State& out);

}  // namespace homme
