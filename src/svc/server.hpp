#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "svc/admission.hpp"
#include "svc/engine.hpp"

/// \file server.hpp
/// svc::Server — the long-running hardened front-end over svc::Engine.
///
/// The engine is a batch machine: submit, wait, read results. A service
/// deployment needs the layer above it — the part that stays up. The
/// server owns an engine and adds what an always-on ensemble service
/// needs:
///
///   * admission control: named tenants with quotas and priority tiers;
///     every submission gets a typed verdict (Admitted / Throttled /
///     Rejected) before it can touch the engine queue;
///   * supervised retries: a Faulted member is re-submitted after an
///     exponential backoff with deterministic jitter, resuming from its
///     last checkpoint chain rather than from step 0, up to a bounded
///     attempt budget;
///   * graceful drain: stop admitting, cancel-and-checkpoint in-flight
///     members, park the incomplete ones, and shut the engine down;
///   * restart: a fresh engine re-admits every parked member from its
///     checkpoint, and the final state digests are identical to an
///     uninterrupted run;
///   * a metrics snapshot (obs::Report JSON, plus a scrape-friendly flat
///     key/value rendering) that folds the live engine's stats into the
///     totals retired by previous drain cycles.
///
/// Lifecycle state machine (see DESIGN.md §13):
///   kAdmitting --drain()--> kDraining --(drained)--> kStopped
///   kStopped --restart()--> kAdmitting        (any number of cycles)

namespace svc {

/// How the server retries Faulted members. Delays are exponential with
/// deterministic jitter: attempt k (k >= 1 retries) waits
///   min(backoff_base_s * 2^(k-1), backoff_max_s) * (1 + jitter_frac * u)
/// where u in [-1, 1) is a hash of (jitter_seed, member name, k) — the
/// same seed and member always produce the same schedule, so soak runs
/// are reproducible.
struct RetryPolicy {
  int max_attempts = 3;         ///< total attempts, first run included
  double backoff_base_s = 0.5;  ///< first retry delay (unscaled)
  double backoff_max_s = 8.0;   ///< delay ceiling (unscaled)
  double jitter_frac = 0.25;    ///< relative jitter amplitude, [0, 1]
  std::uint64_t jitter_seed = 0x53574341ull;  // "SWCA"
  /// Wall multiplier applied when actually sleeping. 1: real time.
  /// 0: virtual time — the unscaled schedule is still computed and
  /// recorded per member, but retries fire immediately (soak benches).
  double sleep_scale = 1.0;

  /// The unscaled delay before retry \p attempt (1-based) of \p member.
  double delay_s(const std::string& member, int attempt) const;
};

enum class ServerState : std::uint8_t {
  kAdmitting = 0,  ///< accepting submissions
  kDraining,       ///< drain() in progress: no admissions, parking members
  kStopped         ///< engine down; restart() brings it back
};

std::string_view to_string(ServerState s);

/// Where one member is in its supervised life.
enum class MemberPhase : std::uint8_t {
  kActive = 0,  ///< queued or running in the engine
  kBackoff,     ///< faulted; waiting out its retry delay
  kParked,      ///< drained with work remaining; resumes on restart()
  kDone         ///< terminal: completed, retries exhausted, or cancelled
};

std::string_view to_string(MemberPhase p);

/// Snapshot of one member's supervision record.
struct MemberStatus {
  std::string name;
  std::string tenant;
  MemberPhase phase = MemberPhase::kActive;
  Admission admission = Admission::kRejected;
  int attempts = 0;              ///< engine submissions so far
  int restarts = 0;              ///< drain/restart cycles survived
  RunState last_state = RunState::kQueued;
  std::uint32_t state_crc = 0;   ///< digest of the last terminal result
  int resumed_from = 0;          ///< step the last attempt restored at
  std::string error;             ///< last fault message, if any
  std::vector<double> retry_delays_s;  ///< recorded unscaled schedule
};

struct ServerConfig {
  EngineConfig engine;
  RetryPolicy retry;
  /// Directory for per-member checkpoint bases ("<dir>/<member>.ck").
  /// Members that already name a checkpoint_base keep it. Empty: the
  /// server assigns no checkpoints — retries and restarts then re-run
  /// members from step 0 (still digest-correct, just slower).
  std::string checkpoint_dir;
  /// Cadence (steps) applied to member configs that have none; gives
  /// faulted members something to resume from mid-run.
  int checkpoint_freq = 8;
  /// Delta-chain full-image interval applied together with the cadence.
  int ckpt_full_interval = 4;
};

/// The long-running service front-end. All public methods are thread
/// safe. Destruction drains (members still in flight are checkpointed
/// and parked, never silently dropped).
class Server {
 public:
  explicit Server(ServerConfig cfg = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Provision (or update) a tenant before it may submit.
  void add_tenant(const std::string& tenant, TenantQuota quota);

  /// The admission outcome of one submission. On kRejected the ticket
  /// is null and reason says why; otherwise the member is in the engine
  /// (possibly at a demoted priority when kThrottled).
  struct SubmitOutcome {
    Admission admission = Admission::kRejected;
    int priority = 0;
    std::string reason;
    RunTicket ticket;
  };

  /// Admit and enqueue one member under \p tenant. Member names must be
  /// unique for the server's lifetime (they key checkpoint bases and
  /// supervision records). The server overrides req.priority with the
  /// verdict's, assigns a checkpoint base/cadence when the config lacks
  /// one, and sets checkpoint_on_exit so drains can park the member.
  SubmitOutcome submit(const std::string& tenant, const std::string& member,
                       RunRequest req);

  /// Block until no member is kActive or kBackoff (everything is done
  /// or parked). Returns immediately on an idle server.
  void wait_idle();

  /// Graceful drain: stop admitting, cancel every in-engine member
  /// (running ones checkpoint at their stop step), park the incomplete
  /// ones, fold the engine's stats into the retired totals, and shut
  /// the engine down. Blocking; idempotent. State ends kStopped.
  void drain();

  /// Bring up a fresh engine and re-submit every parked member with
  /// resume=true — each continues from its checkpoint chain and must
  /// produce a final digest identical to an uninterrupted run. State
  /// returns to kAdmitting. Throws std::logic_error unless kStopped.
  void restart();

  ServerState state() const;
  MemberStatus member(const std::string& name) const;
  std::vector<MemberStatus> members() const;
  /// Engine counters: the live engine's snapshot folded into the totals
  /// retired by previous drain cycles.
  EngineStats engine_stats() const;
  std::uint64_t retries() const;   ///< re-submissions after faults
  std::uint64_t restarts() const;  ///< completed drain/restart cycles

  /// Point-in-time metrics document: server state, per-phase member
  /// counts, per-tenant admission counters, retry totals, and the
  /// folded engine stats.
  obs::Report metrics() const;
  /// metrics() rendered as scrape-friendly "path value" lines (see
  /// obs::Report::flat), namespaced under "swcam.".
  std::string metrics_flat() const;

  const ServerConfig& config() const { return cfg_; }

 private:
  struct Member {
    std::string name;
    std::string tenant;
    RunRequest request;         ///< as submitted (server fields applied)
    RunTicket ticket;           ///< live handle of the current attempt
    MemberPhase phase = MemberPhase::kActive;
    Admission admission = Admission::kRejected;
    int priority = 0;
    int attempts = 0;
    int restarts = 0;
    RunState last_state = RunState::kQueued;
    std::uint32_t state_crc = 0;
    int resumed_from = 0;
    std::string error;
    std::vector<double> retry_delays_s;
    std::chrono::steady_clock::time_point retry_at{};  ///< kBackoff only
  };

  void lifecycle_loop();
  /// Install the terminal-member hook on a freshly built engine_.
  void attach_engine();
  /// Fold a terminal attempt into the member record; schedules a retry
  /// (kBackoff) or finishes it. Caller holds mu_.
  void handle_terminal(Member& m);
  /// Record \p m as running \p ticket (kActive). Caller holds mu_. The
  /// engine runs a member from its submit, before the record exists, so
  /// a member already terminal here fired the hook with nothing to
  /// retire: wake the lifecycle loop again for it.
  void activate(Member& m, RunTicket ticket);
  /// Re-submit \p name with resume=true. Takes submit_mu_ then mu_.
  void resubmit(const std::string& name);
  void apply_server_fields(const std::string& member, RunRequest& req) const;
  MemberStatus status_of(const Member& m) const;

  ServerConfig cfg_;

  /// Serializes engine submissions against drain: whoever holds it may
  /// be blocked in engine->submit under backpressure, and drain waits
  /// for that to land before closing the queue. Taken before mu_.
  std::mutex submit_mu_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  ServerState state_ = ServerState::kAdmitting;
  std::unique_ptr<Engine> engine_;
  AdmissionController admission_;
  std::map<std::string, Member> members_;
  EngineStats retired_;         ///< stats folded from drained engines
  std::uint64_t retries_ = 0;
  std::uint64_t restarts_ = 0;
  bool stop_ = false;           ///< lifecycle thread shutdown flag
  bool terminal_dirty_ = false; ///< engine hook saw a terminal member

  std::thread lifecycle_;
};

}  // namespace svc
