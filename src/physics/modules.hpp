#pragma once

#include "physics/column.hpp"

/// \file modules.hpp
/// The physics parameterizations: a CAM5-shaped suite in miniature.
/// Each module advances one column by dt and adds to the diagnostics;
/// its temporaries come from the column's work array, so a module call
/// makes no heap allocation.
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

/// Gray two-stream longwave radiation plus crude shortwave absorption.
/// Updates t; fills diag.olr and contributes to diag.net_heating.
void gray_radiation(const RadiationConfig& cfg, Column& c, double dt,
                    ColumnDiag& diag);

/// Dry convective adjustment: restore a dry-adiabatic-or-stabler lapse
/// rate, conserving column enthalpy (cp T dp sums).
void dry_adjustment(Column& c, int max_iter = 10);

/// Large-scale (stable) condensation: remove supersaturation with latent
/// heating; precipitates the condensate. Fills diag.precip.
void large_scale_condensation(Column& c, double dt, ColumnDiag& diag);

struct SurfaceConfig {
  double c_drag = 1.3e-3;     ///< bulk exchange coefficient
  double min_wind = 1.0;      ///< gustiness floor, m/s
  double k_pbl = 5.0;         ///< PBL eddy diffusivity, m^2/s
  double pbl_depth_pa = 2.0e4;///< pressure depth of active mixing
};

/// Bulk surface fluxes into the lowest layer plus implicit vertical
/// diffusion of t, q, u, v over the PBL. Fills diag.shf / diag.lhf.
void surface_and_pbl(const SurfaceConfig& cfg, Column& c, double dt,
                     ColumnDiag& diag);

/// Column moist enthalpy cp*T + Lv*q integrated over mass (J/m^2 * g).
double column_moist_enthalpy(const Column& c);

}  // namespace phys
