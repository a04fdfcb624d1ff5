#pragma once

#include "physics/column.hpp"

/// \file modules.hpp
/// The physics parameterizations: a CAM5-shaped suite in miniature.
/// Each module advances one column by dt and adds to the diagnostics;
/// its temporaries come from the column's work array, so a module call
/// makes no heap allocation. Each is one lane-generic body, instantiated
/// (modules.cpp) for T = double, one column, and T = homme::vpack, one
/// column per lane; every lane performs its column's scalar operation
/// sequence, so both give the same bits for the same column.
/// The ordering in PhysicsDriver (radiation -> convective adjustment ->
/// large-scale condensation -> surface fluxes + vertical diffusion)
/// mirrors CAM's tphysbc/tphysac split.

namespace phys {

struct RadiationConfig {
  double tau0 = 4.0;       ///< column gray optical depth at the surface
  double solar0 = 342.0;   ///< global-mean insolation, W/m^2
  double albedo = 0.3;
  double sw_abs_frac = 0.25;  ///< shortwave absorbed within the atmosphere
};

/// Blackbody emission kStefan * t^4, lane by lane, with the bits of
/// kStefan * std::pow(t, 4). pow runs only in the lanes where t^4,
/// computed to about 2^-100, lies 0.45 ulp or more from its nearest
/// double (modules.cpp).
template <class T>
T blackbody_emission(T t);

/// Gray two-stream longwave radiation plus crude shortwave absorption.
/// Updates t; fills diag.olr and contributes to diag.net_heating.
template <class T>
void gray_radiation(const RadiationConfig& cfg, BasicColumn<T>& c, double dt,
                    BasicColumnDiag<T>& diag);

/// Dry convective adjustment: restore a dry-adiabatic-or-stabler lapse
/// rate, conserving column enthalpy (cp T dp sums).
/// Sweeps until no pair adjusts, at most \p max_iter times; with lanes,
/// until no lane adjusts (a lane whose column stopped adjusting is left
/// unchanged by the further sweeps).
template <class T>
void dry_adjustment(BasicColumn<T>& c, int max_iter = 10);

/// Large-scale (stable) condensation: remove supersaturation with latent
/// heating; precipitates the condensate. Fills diag.precip.
template <class T>
void large_scale_condensation(BasicColumn<T>& c, double dt,
                              BasicColumnDiag<T>& diag);

struct SurfaceConfig {
  double c_drag = 1.3e-3;     ///< bulk exchange coefficient
  double min_wind = 1.0;      ///< gustiness floor, m/s
  double k_pbl = 5.0;         ///< PBL eddy diffusivity, m^2/s
  double pbl_depth_pa = 2.0e4;///< pressure depth of active mixing
};

/// Bulk surface fluxes into the lowest layer plus implicit vertical
/// diffusion of t, q, u, v over the PBL. Fills diag.shf / diag.lhf.
template <class T>
void surface_and_pbl(const SurfaceConfig& cfg, BasicColumn<T>& c, double dt,
                     BasicColumnDiag<T>& diag);

/// Column moist enthalpy cp*T + Lv*q integrated over mass (J/m^2 * g).
double column_moist_enthalpy(const Column& c);

}  // namespace phys
