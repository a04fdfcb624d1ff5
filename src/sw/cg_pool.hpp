#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sw/config.hpp"
#include "sw/contention.hpp"
#include "sw/core_group.hpp"

/// \file cg_pool.hpp
/// sw::CgPool — N core groups behind one shared memory controller, the
/// full SW26010 processor instead of the single implicit core group the
/// simulator historically exposed.
///
/// The pool owns the groups, one MemoryContention arbiter attached to all
/// of them, and one mutex per group. A CoreGroup is *not* thread safe:
/// any caller that runs or mutates group i must hold lock(i) for the
/// duration (accel::PipelineAccelerator does). The contention arbiter
/// itself is lock free; DMA cost sampling never takes a pool lock.
///
/// Concurrency is declared, not inferred: a caller about to stream DMA
/// from group i opens a stream on the shared controller
/// (contention().open_stream() / MemoryContention::StreamGuard) for the
/// duration of its launches. Sharded launches that want deterministic
/// modeled times open every participating stream *before* the first
/// shard runs, so each DMA descriptor samples the same stream count on
/// every run regardless of host thread scheduling.

namespace sw {

class CgPool {
 public:
  /// A pool of \p ngroups core groups (1..kGroupsPerProcessor is the
  /// physically meaningful range; larger pools model multi-processor
  /// nodes and are allowed).
  explicit CgPool(int ngroups);

  int size() const { return static_cast<int>(groups_.size()); }
  CoreGroup& group(int i) { return *groups_[static_cast<std::size_t>(i)]; }
  const CoreGroup& group(int i) const {
    return *groups_[static_cast<std::size_t>(i)];
  }
  MemoryContention& contention() { return mc_; }
  const MemoryContention& contention() const { return mc_; }

  /// Exclusive access to group \p i. Hold this while calling run(),
  /// set_fault_plan(), purge_ldm() or set_tracer() on the group. Callers
  /// locking several groups must acquire in ascending index order.
  std::unique_lock<std::mutex> lock(int i) {
    return std::unique_lock<std::mutex>(*locks_[static_cast<std::size_t>(i)]);
  }

  /// Declare one active DMA stream on the shared controller for the
  /// lifetime of the returned guard.
  MemoryContention::StreamGuard stream() {
    return MemoryContention::StreamGuard(mc_);
  }

  /// Attach (or detach with nullptr) one tracer to every group. Group i
  /// exports as pid \p pid_base + i with track prefix "<prefix>/cg:<i>"
  /// ("cg:<i>" when \p prefix is empty) — distinct pids keep the per-CG
  /// launch and fine CPE tracks of one pool from colliding in the merged
  /// Chrome trace.
  void set_tracer(obs::Tracer* t, int pid_base = CoreGroup::kDefaultTracePid,
                  const std::string& prefix = std::string());

 private:
  MemoryContention mc_;
  // unique_ptr: CoreGroup holds Cpe back-pointers into itself and must
  // never be moved; mutexes are not movable either.
  std::vector<std::unique_ptr<CoreGroup>> groups_;
  std::vector<std::unique_ptr<std::mutex>> locks_;
};

}  // namespace sw
