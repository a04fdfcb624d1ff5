#pragma once

#include <memory>
#include <string>
#include <vector>

#include "accel/kernel.hpp"
#include "homme/driver.hpp"
#include "sw/cg_pool.hpp"
#include "sw/fault.hpp"

/// \file accel_driver.hpp
/// Glue between the homme dycore and the accel kernel pipeline: a
/// homme::StepAccelerator that runs the ported kernels on a simulated
/// core-group pool, straight on the state's own field chunks. This is the
/// boundary the paper's redesigned CAM-SE crosses on every dynamics step:
/// each CPE DMAs element blocks between main memory and its LDM, with no
/// staging copy of the state in between.

namespace accel {

/// Runs the vertical remap of a dynamics step through the athread
/// kernel pipeline. Attach to a Dycore with attach_accelerator(&pa).
/// The remap reads and writes only the state's own prognostics, so one
/// accelerator serves a whole-mesh Dycore and a rank's Dycore alike.
/// The kernel takes homme's remap target and column plans, so the
/// offloaded remap is bit-identical to homme::vertical_remap_local: a
/// pipeline-backend run steps to the host backend's bits.
///
/// The kernels read each element's prognostic chunks (dp, u1, u2, T,
/// qdp) where the state holds them and write spare chunks of the same
/// shape, through one StateBlocks (kernel.hpp) refilled per remap, the
/// same tables every port binds; once every shard has succeeded, the
/// accelerator swaps the spares into the state, and the state's former
/// chunks become the next remap's spares. phis is never touched. A warm
/// remap therefore allocates no field: only a spare that a fork or a
/// checkpoint snapshot still shares is un-shared (copy on write) before
/// it is written.
///
/// By default the accelerator owns a private 1-CG pool, exactly the
/// historical single-core-group behavior. set_cg_pool() instead binds to
/// an externally owned sw::CgPool (a model::Session's pool, or
/// svc::Engine placement: one processor shared by several members) with
/// an explicit CG-affinity list. Either way every remap
/// shards its elements contiguously across the assigned groups — the
/// remap arithmetic is per-element independent, so the sharded result is
/// bit-identical to the 1-CG result.
class PipelineAccelerator final : public homme::StepAccelerator {
 public:
  explicit PipelineAccelerator(const homme::Dims& d);

  /// Offload to the CPE pipeline; on a kernel fault (injected DMA/reg
  /// failure, CPE death, LDM overflow, scheduler deadlock) the poisoned
  /// launch is discarded — the kernels wrote only spare chunks, which
  /// are swapped in only after every shard succeeded, so the state was
  /// never touched — and the remap re-runs on the host path,
  /// bit-identical to an unfaulted launch and to a never-accelerated
  /// step. The next remap rewrites every byte of every spare. The
  /// fallback is recorded in the launch stats
  /// (CpeCounters::host_fallbacks) and in fallbacks()/last_fault().
  void vertical_remap(homme::State& s) override;

  /// Bind to an externally owned pool, running shards on the groups in
  /// \p cgs (in order). The pool's per-group locks serialize against
  /// other accelerators sharing the processor; DMA streams of all
  /// tenants contend on the pool's shared memory controller.
  void set_cg_pool(std::shared_ptr<sw::CgPool> pool, std::vector<int> cgs);
  const std::shared_ptr<sw::CgPool>& cg_pool() const { return pool_; }
  const std::vector<int>& cg_affinity() const { return cgs_; }
  int core_groups() const { return static_cast<int>(cgs_.size()); }

  /// Inject simulated faults into subsequent launches (nullptr detaches).
  /// The plan is installed on each assigned core group only for the
  /// duration of that group's shard launch, so siblings sharing the pool
  /// never see it; its per-CPE op counters advance independently per
  /// group (CPE ids repeat across groups).
  void set_fault_plan(sw::FaultPlan* plan) { faults_ = plan; }

  /// Attach a tracer: the accelerator reports pack/offload/unpack spans
  /// and host fallbacks (as counted "accel:host_fallback" instants) on
  /// track \p track_name. When the accelerator owns its pool the tracer
  /// is forwarded to it ("<track_name>/cg:<i>" tracks, pid \p pid + i);
  /// an externally bound pool keeps whatever tracer its owner attached.
  /// Two accelerators on one tracer need distinct names.
  void set_tracer(obs::Tracer* t, const std::string& track_name = "accel",
                  int pid = sw::CoreGroup::kDefaultTracePid);

  /// Stats of the most recent offloaded remap, aggregated over its
  /// shards: counters summed, cycles/seconds the slowest shard (shards
  /// run concurrently on distinct groups). Empty before the first.
  const sw::KernelStats& last_stats() const { return last_stats_; }
  /// Number of launches routed through this accelerator so far.
  int launches() const { return launches_; }
  /// Launches discarded after a fault and redone on the host path.
  int fallbacks() const { return fallbacks_; }
  /// Diagnostic of the most recent fault that forced a fallback.
  const std::string& last_fault() const { return last_fault_; }

 private:
  void degrade(homme::State& s, const std::string& why);
  void forward_tracer();

  homme::Dims dims_;
  std::shared_ptr<sw::CgPool> pool_;
  std::vector<int> cgs_;
  bool owns_pool_ = true;
  sw::FaultPlan* faults_ = nullptr;
  homme::State spare_;  ///< output chunks, swapped into the state
  /// The state's chunks (read) and spare_'s (written). Refilled on every
  /// remap, in the capacity of the last.
  StateBlocks blocks_;
  sw::KernelStats last_stats_;
  int launches_ = 0;
  int fallbacks_ = 0;
  std::string last_fault_;
  obs::Tracer* tracer_ = nullptr;
  std::string track_name_ = "accel";
  int trace_pid_ = sw::CoreGroup::kDefaultTracePid;
  obs::Track* trk_ = nullptr;
};

}  // namespace accel
