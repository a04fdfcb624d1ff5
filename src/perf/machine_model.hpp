#pragma once

#include <string>
#include <vector>

#include "net/network_model.hpp"

/// \file machine_model.hpp
/// Machine-scale performance model for CAM(-SE) on Sunway TaihuLight.
///
/// The scaling results of the paper (Figures 6-8, Table 3) were measured
/// on up to 10,075,000 cores. We reproduce their *shape* by composing
///   (a) per-element per-step kernel costs and flop counts *measured* on
///       the functional SW26010 simulator (calibrate()), with
///   (b) the analytic two-level TaihuLight network model,
/// exactly the decomposition the paper itself uses when it attributes
/// 23% of large-scale runtime to communication (section 7.6).
///
/// One dynamics step = 3 RK stages of compute_and_apply_rhs + a 3-stage
/// euler tracer subcycle + hyperviscosity + 1/3 of a vertical remap,
/// each stage followed by a halo exchange (DSS).

namespace perf {

/// Which port of CAM runs on the core group.
enum class Version {
  kOriginal,  ///< MPE only ("ori" in Figure 6)
  kOpenAcc,   ///< OpenACC refactoring
  kAthread    ///< fine-grained redesign
};

std::string to_string(Version v);

/// Per-element per-dynamics-step costs of one core group, measured on the
/// simulator at calibration time.
struct ElementCost {
  double seconds = 0.0;        ///< compute seconds per element per step
  double flops = 0.0;          ///< retired DP flops per element per step
};

/// One point of the multi-core-group contention curve, measured on the
/// simulator at calibration time: kernel slowdown and achieved per-CG DMA
/// bandwidth with \p active_cgs groups streaming through one shared
/// memory controller.
struct ContentionPoint {
  int active_cgs = 1;
  double slowdown = 1.0;        ///< kernel-time inflation vs. a lone group
  double per_cg_gbytes_s = 0.0; ///< achieved DMA bandwidth of one group
};

struct MachineModel {
  ElementCost cost[3];           ///< indexed by Version
  double pflops_scale = 1.0;     ///< anchor normalization (see calibrate())
  int nlev = 128;
  int qsize = 25;
  net::NetworkModel network;

  /// Measured multi-CG contention curve (1..active_cgs streams), and the
  /// conditions the per-element costs were measured under. With
  /// active_cgs > 1 every cost in cost[] already includes the measured
  /// intra-node contention of a fully loaded processor, so the fig7/fig8
  /// analytic scaling consumes measured — not assumed — contention.
  std::vector<ContentionPoint> contention;
  int active_cgs = 1;
  double contention_slowdown = 1.0;  ///< curve value at active_cgs

  /// Run the Table-1 kernels on the simulator and derive the per-element
  /// step costs. \p nelem is the per-process element count used for the
  /// calibration workset. \p active_cgs is the number of sibling core
  /// groups concurrently streaming DMA while the costs are measured
  /// (4 = every group of a fully loaded SW26010); the realized
  /// contention curve is measured on a CgPool, not taken from the
  /// sw/config.hpp constants.
  static MachineModel calibrate(int nlev = 128, int qsize = 25,
                                int nelem = 64, int active_cgs = 4);

  /// Dynamics time step (s) for a given horizontal resolution, following
  /// CAM-SE practice (ne30 -> 300 s, scaling like 1/ne).
  static double dyn_dt_seconds(int ne) { return 300.0 * 30.0 / ne; }

  struct StepCost {
    double compute_s = 0.0;
    double comm_s = 0.0;
    double total_s = 0.0;
    double pflops = 0.0;   ///< sustained PFlops at this configuration
  };

  /// Cost of one dynamics step of the HOMME dycore at resolution \p ne on
  /// \p nprocs core groups. \p overlap enables the redesigned
  /// bndry_exchangev (communication hidden behind interior compute).
  StepCost dycore_step(int ne, long long nprocs, Version v,
                       bool overlap = true) const;

  /// Whole-CAM simulation speed in simulated years per day. The share of
  /// runtime no port accelerates (physics, scheme glue, I/O) is the fixed
  /// kSerialFraction of machine_model.cpp.
  double sypd(int ne, long long nprocs, Version v, bool overlap = true) const;

  /// Strong-scaling parallel efficiency relative to \p base_procs.
  double parallel_efficiency(int ne, long long base_procs,
                             long long nprocs, Version v) const;

  /// Halo bytes a process owning \p local elements sends per one-field
  /// exchange: the rows BndryExchange sends, one per (boundary element,
  /// shared node), x levels x 8 bytes.
  double halo_bytes(long long local) const;
  /// Number of halo-exchange stages per dynamics step.
  double exchanges_per_step() const;
};

}  // namespace perf
