#pragma once

#include <string>
#include <vector>

#include "model/session.hpp"

/// \file nggps.hpp
/// Reproduction harness for Table 3: the NGGPS-style comparison of the
/// redesigned HOMME against FV3- and MPAS-style dynamical cores on the
/// 12.5 km / 2-hour and 3 km / 30-minute prediction workloads.
///
/// Methodology (documented in EXPERIMENTS.md): per-column step costs of
/// HOMME's real step and of the FV3 and MPAS minis are *measured on the
/// same host* (so their ratios are meaningful), time steps follow each core's stability character
/// (FV3 runs a longer dt; MPAS's RK3 needs three sweeps), communication
/// comes from the analytic TaihuLight network model with each core's
/// halo pattern (HOMME overlaps per section 7.6; FV3 pays its polar
/// filter; MPAS pays two-deep halos on every RK sweep), and the whole
/// table is normalized once so that HOMME's 12.5 km entry equals the
/// paper's 2.712 s.

namespace baselines {

struct NggpsRow {
  std::string workload;  ///< "12.5km/2h" or "3km/30min"
  std::string dycore;    ///< "HOMME (this work)", "FV3", "MPAS"
  long long procs = 0;
  double runtime_s = 0.0;
  double paper_s = 0.0;
};

/// Host-measured per-column-level per-step costs (seconds) of the three
/// dycores.
struct DycoreCosts {
  double homme = 0.0;
  double fv3 = 0.0;
  double mpas = 0.0;
};

/// Measure the per-column-level costs on the host: HOMME's as one remap
/// cycle (remap_freq steps, one of them remapping) of a model::Session
/// built from \p homme (Table 3 passes the "nggps" scenario's config),
/// FV3's and MPAS's by running their minis.
DycoreCosts measure_dycore_costs(const model::SessionConfig& homme);

/// Produce the six Table 3 rows.
std::vector<NggpsRow> run_nggps(const DycoreCosts& costs);

}  // namespace baselines
