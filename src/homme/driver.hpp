#pragma once

#include <memory>
#include <span>
#include <vector>

#include "homme/state.hpp"
#include "mesh/cubed_sphere.hpp"
#include "obs/trace.hpp"

/// \file driver.hpp
/// prim_run — the dynamics driver. One dynamics step is:
///   1. SSP-RK3 integration of the primitive equations
///      (three compute_and_apply_rhs evaluations, each ending in DSS),
///   2. an euler_step tracer subcycle,
///   3. nabla^4 hyperviscosity (hypervis_dp2 + biharmonic_dp3d),
///   4. every remap_freq steps, vertical_remap back to reference levels.
/// This is the structure the paper's timers break into the six Table 1
/// kernels. The step is written once: it runs against a homme::Exchange
/// (exchange.hpp), one BndryExchange with no neighbours for the whole mesh
/// or one rank's bndry_exchangev over the mini-MPI; both sum every node
/// in one order, so both step to the same bits.

namespace homme {

struct DycoreConfig {
  double dt = 0.0;         ///< dynamics time step, s (0: pick stable_dt)
  int remap_freq = 3;      ///< vertical remap cadence, steps
  bool limit_tracers = true;
  bool hypervis_on = true;
};

/// Hook for offloading step phases to an accelerator backend (the
/// accel:: kernel pipeline in this repo). The dycore stays ignorant of
/// how the work runs — an attached accelerator simply replaces the host
/// implementation of a phase with a bit-identical one.
class StepAccelerator {
 public:
  virtual ~StepAccelerator() = default;
  /// Replace homme::vertical_remap_local for the dycore's whole (local)
  /// state.
  virtual void vertical_remap(State& s) = 0;
};

/// Conservation / sanity diagnostics of a whole-mesh state.
struct Diagnostics {
  double dry_mass = 0.0;      ///< integral of dp dA (total air mass * g)
  double total_energy = 0.0;  ///< integral of (cp T + KE) dp dA / g
  double max_wind = 0.0;      ///< max |u| (m/s)
  double min_dp = 0.0;        ///< min layer thickness (sanity: > 0)
  double max_t = 0.0, min_t = 0.0;
};

/// Diagnostics of \p s, the whole mesh in mesh order, summed in that
/// order: one pass, so the same state gives the same bits however many
/// ranks stepped it.
Diagnostics diagnose(const mesh::CubedSphere& m, const Dims& d,
                     const State& s);

class BndryExchange;
class Exchange;

class Dycore {
 public:
  /// A dycore over the elements it owns: \p elems — rank r's
  /// Partition::rank_elems[r], whose order is the local state's order —
  /// or, when empty, the whole mesh in mesh order.
  Dycore(const mesh::CubedSphere& m, const Dims& d, DycoreConfig cfg,
         std::vector<int> elems = {});
  ~Dycore();

  /// Advance one dynamics step of \p s (this dycore's elements, local
  /// order), every DSS assembled through \p x, which must cover the same
  /// elements.
  void step(State& s, const Exchange& x);
  /// One step of a whole-mesh dycore, against its own one-rank exchange
  /// (built once, with the dycore).
  void step(State& s);
  /// Advance \p n whole-mesh steps.
  void run(State& s, int n);

  /// Owned global element ids, local order.
  std::span<const int> elements() const { return elems_; }

  double dt() const { return cfg_.dt; }
  /// The nabla^4 coefficient (m^4/s), from the grid spacing and dt.
  double nu() const { return nu_; }

  /// A conservative CFL-stable time step for wind + gravity-wave speed
  /// \p cmax (m/s) on mesh \p m.
  static double stable_dt(const mesh::CubedSphere& m, double cmax = 400.0);

  /// Route supported step phases through \p accel (nullptr detaches).
  /// The accelerator must outlive the dycore (not owned).
  void attach_accelerator(StepAccelerator* accel) { accel_ = accel; }

  /// Report step phases (dyn:step > dyn:rhs_stage x3 / dyn:euler /
  /// dyn:hypervis / dyn:remap) on \p trk: a whole-mesh dycore's own
  /// "dycore" track, or a rank's "rank<r>" track shared with its
  /// bndry:*/net:* events. nullptr detaches.
  void set_track(obs::Track* trk) { trk_ = trk; }
  obs::Track* track() const { return trk_; }

  /// Steps taken so far (drives the vertical-remap cadence).
  int step_count() const { return step_count_; }
  /// Rewind/advance the step counter — restoring a checkpoint must realign
  /// the remap cadence or the restarted run diverges from the straight one.
  void set_step_count(int n) { step_count_ = n; }

 private:
  const mesh::CubedSphere& mesh_;
  Dims dims_;
  DycoreConfig cfg_;
  std::vector<int> elems_;
  /// The whole-mesh dycore's exchange: no neighbours, mesh order.
  std::unique_ptr<BndryExchange> whole_;
  double nu_;
  int step_count_ = 0;
  StepAccelerator* accel_ = nullptr;
  obs::Track* trk_ = nullptr;
  /// The RK stage buffer, updated in place by every stage; hypervis_dp2's
  /// work state while it is idle, from the swap to the next stage 1.
  State stage_;
};

}  // namespace homme
