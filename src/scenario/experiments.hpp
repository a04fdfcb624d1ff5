#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "physics/driver.hpp"
#include "scenario/registry.hpp"
#include "tc/tracker.hpp"
#include "tc/vortex.hpp"

/// \file experiments.hpp
/// The paper's named experiments, driven through scenario:: sessions.
///
/// - Figure 9 (Katrina): a synthetic Katrina-class cyclone's lifecycle
///   at a coarse and a fine resolution, track/intensity vs the analytic
///   reference trajectory. Previously tc::run_katrina over a raw Dycore;
///   now the "katrina" scenario's Session, bit-identical outputs.
/// - Figure 4 (climatology validation): the same model run twice — the
///   test run perturbed at the measured cross-platform reassociation
///   magnitude — comparing time-mean surface temperature. Previously
///   validation::climatology_compare; now two members of the
///   "fig4-validation" scenario (member 0 control, member 1 perturbed).

namespace scenario {

// -- Figure 9: the Katrina lifecycle ----------------------------------------

struct KatrinaConfig {
  int ne_coarse = 3;      ///< "ne30" analog
  int ne_fine = 12;       ///< "ne120" analog (same 4x ratio as the paper)
  int nlev = 8;
  double hours = 12.0;    ///< simulated lifecycle segment
  int n_outputs = 6;      ///< track fixes recorded
  tc::TcParams vortex{};
};

struct KatrinaRun {
  int ne = 0;
  tc::TcTrack track;
  /// Analytic reference ("observed") center at each fix time, so
  /// consumers print the comparison without re-deriving the steering
  /// trajectory themselves.
  std::vector<double> ref_lat;
  std::vector<double> ref_lon;
  /// Great-circle distance (km) between each fix and its reference.
  std::vector<double> ref_dist_km;
  /// Mean great-circle distance (km) between fixes and the reference.
  double mean_track_error_km = 0.0;
  /// Final MSW as a fraction of the initial MSW (intensity retention).
  double intensity_retention = 0.0;
  /// Minimum surface pressure over the run (cyclone depth), Pa.
  double deepest_ps = 0.0;
  /// model::state_digest of the final state — the migration-safety and
  /// CI bit-identity handle.
  std::uint32_t state_crc = 0;
};

struct KatrinaResult {
  KatrinaRun coarse;
  KatrinaRun fine;
};

/// The vortex IC as an InitSpec (what the "katrina" scenario registers).
InitSpec katrina_init_spec(const tc::TcParams& p);
/// The storm physics: no radiation over the short segment, a Gulf-like
/// warm SST pool under the vortex genesis region.
phys::PhysicsConfig katrina_physics_cfg(const tc::TcParams& p);

/// Run one resolution through the "katrina" scenario's session.
KatrinaRun run_katrina_at(int ne, const KatrinaConfig& cfg = {});
/// Run the coarse/fine pair of Figure 9.
KatrinaResult run_katrina(const KatrinaConfig& cfg = {});

// -- Figure 4: climatological validation ------------------------------------

struct ClimatologyConfig {
  int ne = 4;
  int nlev = 8;
  int steps = 120;           ///< "climatology" accumulation window
  int spinup = 20;
  double perturbation = 1e-9; ///< relative, the measured platform drift
};

struct ClimatologyStats {
  double mean_control = 0.0;   ///< area-weighted mean surface T, K
  double mean_test = 0.0;
  double rmse = 0.0;           ///< K
  double pattern_correlation = 0.0;
  double max_abs_diff = 0.0;   ///< K
  std::vector<double> control_field;  ///< [elem*16] time-mean surface T
  std::vector<double> test_field;
};

/// The moist baroclinic aquaplanet IC shared by the "fig4-validation"
/// and "aquaplanet" scenarios: baroclinic(25, 290, 4) plus a
/// moist-boundary-layer humidity profile; members > 0 get a
/// deterministic relative T perturbation of magnitude `perturb`.
InitSpec aquaplanet_init_spec(double perturb = 0.0);

ClimatologyStats climatology_compare(const ClimatologyConfig& cfg = {});

}  // namespace scenario
