#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "model/session.hpp"
#include "obs/report.hpp"
#include "scenario/registry.hpp"
#include "svc/queue.hpp"

/// \file engine.hpp
/// svc::Engine — batched concurrent model runs.
///
/// The deployment shape of this model class is not one hero run but a
/// throughput machine: ensembles and parameter sweeps, many members
/// multiplexed over fixed compute. The engine is that shape in miniature:
/// a fixed worker pool pulls RunRequests (a model::SessionConfig + step
/// budget + priority) from a bounded submission queue with backpressure,
/// shares one immutable model::MeshBundle per (ne, nranks, radius) across
/// every member, and resolves each request to a typed terminal state —
/// Completed, Faulted (the member threw; the worker survives), Cancelled,
/// or Deadline. Each request yields a per-request obs::Report; the engine
/// aggregates throughput (member-steps/s), queue high-water and worker
/// utilization into a summary report.

namespace svc {

enum class RunState : std::uint8_t {
  kQueued = 0,
  kRunning,
  kCompleted,  ///< ran its full step budget
  kFaulted,    ///< the member threw; error carries what()
  kCancelled,  ///< cancel() before completion (queued or mid-run)
  kDeadline    ///< wall-clock deadline expired mid-run
};

std::string_view to_string(RunState s);
inline bool is_terminal(RunState s) {
  return s != RunState::kQueued && s != RunState::kRunning;
}

/// One ensemble member: a session config plus how to run it. Instead of
/// a hand-built config, a member can name a registered scenario — the
/// engine then resolves `config` from the registry (defaults + overrides
/// + member binding), drives the scenario's forcing schedule during the
/// run, and checks its invariants on completion. Different members of
/// one engine can name different scenarios (mixed-scenario ensembles).
struct RunRequest {
  model::SessionConfig config;
  /// Registered scenario name; empty = use `config` as given. When set,
  /// `config` is overwritten at submit with
  /// scenario::get(scenario).config(overrides, member).
  std::string scenario;
  scenario::Overrides overrides;
  int member = 0;  ///< ensemble member bound into the scenario's InitSpec
  int steps = 1;
  int priority = 0;        ///< higher runs first; FIFO within a priority
  double deadline_s = 0.0; ///< wall budget from submit; 0 = none
  /// Modeled per-step coupler / data-ingest stall (seconds). Real
  /// ensemble members block on I/O and coupler exchanges between steps;
  /// the worker pool exists to overlap exactly that latency. 0 disables.
  double step_stall_s = 0.0;
  /// Resume from the config's checkpoint chain when one exists on disk
  /// (model::Session::try_resume). \p steps then names the TOTAL step
  /// target — a member parked at step M runs only the remaining N - M
  /// steps. Without a checkpoint on disk the member starts fresh, so a
  /// first attempt and a retry share one request shape.
  bool resume = false;
  /// Checkpoint once more when the member stops early (cancelled or past
  /// deadline) and the config names a checkpoint base, so a later resume
  /// continues from the exact stop step rather than the last cadence
  /// save. Faulted members don't get this (their state may be mid-step);
  /// they retry from the last cadence checkpoint.
  bool checkpoint_on_exit = false;
};

/// Terminal outcome of one request. Move-only (owns the report).
struct RunResult {
  RunState state = RunState::kQueued;
  std::string error;           ///< what() of the fault (kFaulted only)
  int steps_done = 0;
  double wall_s = 0.0;         ///< executing time on the worker
  double queue_wait_s = 0.0;   ///< submit -> first execution
  int worker = -1;
  int fallbacks = 0;           ///< accelerator host fallbacks
  int resumed_from = 0;        ///< step_count restored from (0: fresh start)
  /// CRC32 of the member's serialized final state — the bit-identity
  /// handle: equal configs must yield equal digests at any worker count.
  std::uint32_t state_crc = 0;
  homme::Diagnostics diagnostics{};
  obs::Report report{"svc_member"};  ///< per-request machine-readable record
};

/// Shared handle to a submitted request. All methods are thread safe.
class RunHandle {
 public:
  std::uint64_t id() const { return id_; }
  RunState state() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }
  bool done() const { return is_terminal(state()); }

  /// Best-effort cancel: a queued member never runs; a running member
  /// stops at the next step boundary. No-op once terminal.
  void cancel();

  /// Block until terminal; the result stays owned by the handle.
  const RunResult& wait();

 private:
  friend class Engine;
  explicit RunHandle(std::uint64_t id) : id_(id) {}

  bool begin_running(int worker);
  void finish(RunResult res);
  bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }

  const std::uint64_t id_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  RunState state_ = RunState::kQueued;
  std::atomic<bool> cancel_{false};
  RunResult result_;
};

using RunTicket = std::shared_ptr<RunHandle>;

/// submit() refused a request because the queue was full (reject mode).
class QueueFull : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct EngineConfig {
  int workers = 2;
  std::size_t queue_capacity = 16;
  /// Backpressure policy when the queue is full: block the submitter
  /// (false, default) or throw QueueFull (true).
  bool reject_when_full = false;
};

/// A snapshot of the engine's aggregate telemetry.
struct EngineStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t faulted = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t deadline = 0;
  std::uint64_t rejected_full = 0;     ///< QueueFull throws (reject mode)
  std::uint64_t cancelled_queued = 0;  ///< cancelled before first execution
  std::uint64_t resumed = 0;           ///< members restored from a checkpoint
  std::uint64_t member_steps = 0;   ///< steps finished across all members
  double wall_s = 0.0;              ///< engine lifetime at snapshot
  double busy_s = 0.0;              ///< summed worker executing time
  std::size_t queue_depth = 0;
  std::size_t queue_high_water = 0;
  int workers = 0;
  std::size_t mesh_bundles = 0;          ///< distinct shapes resident
  std::size_t mesh_bundle_bytes = 0;     ///< resident shared mesh memory
  std::size_t mesh_bytes_unshared = 0;   ///< hypothetical per-member total

  // COW state + checkpoint accounting, sampled from each member after its
  // last step (homme::StoreStats / the async delta-writer counters).
  std::uint64_t state_samples = 0;        ///< members that reported state
  std::uint64_t state_logical_bytes = 0;  ///< fully-private state cost
  std::uint64_t state_resident_bytes = 0; ///< amortized COW-shared cost
  std::uint64_t state_chunks = 0;         ///< chunk slots sampled
  std::uint64_t state_shared_chunks = 0;  ///< slots aliased by other owners
  std::uint64_t checkpoint_saves = 0;     ///< async delta-writer saves
  std::uint64_t checkpoint_bytes = 0;     ///< bytes those saves wrote

  double member_steps_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(member_steps) / wall_s : 0.0;
  }
  double utilization() const {
    const double cap = wall_s * workers;
    return cap > 0.0 ? busy_s / cap : 0.0;
  }
  double resident_bytes_per_member() const {
    return state_samples > 0
               ? static_cast<double>(state_resident_bytes) /
                     static_cast<double>(state_samples)
               : 0.0;
  }
  double cow_shared_fraction() const {
    return state_chunks > 0
               ? static_cast<double>(state_shared_chunks) /
                     static_cast<double>(state_chunks)
               : 0.0;
  }
  double checkpoint_bytes_per_step() const {
    return member_steps > 0
               ? static_cast<double>(checkpoint_bytes) /
                     static_cast<double>(member_steps)
               : 0.0;
  }

  /// Write every field into \p out under its own name, then the five
  /// ratios above (the engine's summary report, the server's metrics and
  /// the ensemble bench all write through this).
  void write(obs::Json& out) const;

  /// Fold a later engine's snapshot \p s into these totals (svc::Server
  /// across drain/restart cycles): counters sum, high-waters take the
  /// max, and gauges of the live engine (queue depth, workers, bundles)
  /// take \p s's value.
  EngineStats& operator+=(const EngineStats& s) {
    submitted += s.submitted;
    completed += s.completed;
    faulted += s.faulted;
    cancelled += s.cancelled;
    deadline += s.deadline;
    rejected_full += s.rejected_full;
    cancelled_queued += s.cancelled_queued;
    resumed += s.resumed;
    member_steps += s.member_steps;
    wall_s += s.wall_s;
    busy_s += s.busy_s;
    queue_depth = s.queue_depth;
    queue_high_water = std::max(queue_high_water, s.queue_high_water);
    workers = s.workers;
    mesh_bundles = s.mesh_bundles;
    mesh_bundle_bytes = s.mesh_bundle_bytes;
    mesh_bytes_unshared = s.mesh_bytes_unshared;
    state_samples += s.state_samples;
    state_logical_bytes += s.state_logical_bytes;
    state_resident_bytes += s.state_resident_bytes;
    state_chunks += s.state_chunks;
    state_shared_chunks += s.state_shared_chunks;
    checkpoint_saves += s.checkpoint_saves;
    checkpoint_bytes += s.checkpoint_bytes;
    return *this;
  }
};

class Engine {
 public:
  explicit Engine(EngineConfig cfg = {});
  ~Engine();  ///< shutdown(/*drain=*/true)

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Validate, resolve the shared mesh bundle, and enqueue. Blocks under
  /// backpressure (or throws QueueFull in reject mode); throws
  /// model::ConfigError on an unrealizable config.
  RunTicket submit(RunRequest req);

  /// Stop accepting work and join the workers. With \p drain, queued
  /// members still run; without, they terminate as Cancelled. Idempotent.
  void shutdown(bool drain = true);

  EngineStats stats() const;
  /// Engine-level summary: config + the EngineStats fields as a report.
  obs::Report summary_report() const;

  /// Install a hook called from a worker thread (outside engine locks)
  /// each time a member reaches a terminal state. One hook; set it
  /// before submitting. The server layer uses it to nudge its lifecycle
  /// thread instead of polling handles.
  void set_member_hook(std::function<void(std::uint64_t, RunState)> hook);

  /// The shared immutable bundle for a shape (built on first use).
  std::shared_ptr<const model::MeshBundle> bundle(
      int ne, int nranks = 1, double radius = mesh::kEarthRadius);

  const EngineConfig& config() const { return cfg_; }

 private:
  struct Job {
    RunTicket handle;
    RunRequest request;
    /// Registry entry backing request.scenario (registry entries are
    /// never erased, so the pointer stays valid); nullptr for plain
    /// config-only requests.
    const scenario::Scenario* scenario_def = nullptr;
    std::shared_ptr<const model::MeshBundle> bundle;
    std::chrono::steady_clock::time_point submitted;
  };

  void worker_loop(int worker);
  void execute(Job& job, int worker);
  void notify_terminal(std::uint64_t id, RunState s);

  EngineConfig cfg_;
  BoundedQueue<Job> queue_;
  std::vector<std::thread> workers_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> discard_{false};  ///< drop (don't run) drained jobs
  std::atomic<std::uint64_t> next_id_{1};

  mutable std::mutex stats_mu_;
  EngineStats counters_;  ///< mutable fields; wall/depth filled at snapshot

  std::mutex hook_mu_;
  std::function<void(std::uint64_t, RunState)> member_hook_;

  mutable std::mutex bundles_mu_;
  std::map<std::tuple<int, int, double>,
           std::shared_ptr<const model::MeshBundle>>
      bundles_;
  std::size_t bytes_unshared_ = 0;

  std::mutex shutdown_mu_;
  bool shut_down_ = false;
};

}  // namespace svc
