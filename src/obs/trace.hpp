#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

/// \file trace.hpp
/// The cross-layer observability subsystem: hierarchical scoped spans and
/// typed instant events recorded into low-overhead per-track ring sinks,
/// merged into one timeline and exported as Chrome trace-event JSON
/// (viewable in Perfetto / chrome://tracing), plus an aggregated per-phase
/// summary (count, total, max, child-exclusive self time, and attached
/// performance counters).
///
/// The paper's whole evaluation methodology is instrumentation: per-kernel
/// PERF counters produce Table 1, and a phase-attributed timeline is what
/// lets section 7.6 claim "communication is 23% of dycore time". This layer
/// gives every subsystem of the repo — sw::CoreGroup, net::Cluster,
/// accel::PipelineAccelerator, homme::(Parallel)Dycore — one reporting
/// path for exactly that kind of attribution.
///
/// Design notes (DESIGN.md section 9):
///  - A Track is one timeline row (a rank, the modeled core group, the
///    sequential dycore). Each track is owned by exactly one thread at a
///    time; the Tracer's track registry is the only synchronized
///    structure, so the hot recording path is lock-free.
///  - Clock domains: kWall stamps events with host wall time (for real
///    measured phases like the threaded mini-MPI); kVirtual stamps them
///    with a deterministic per-track step counter (one tick per event), so
///    traces are byte-identical across runs and goldens are testable.
///    Independently of the domain, layers with *modeled* time (the SW26010
///    simulator's cycle clocks) record events with explicit timestamps via
///    the *_at calls — a third, modeled clock domain carried by the caller.
///  - The per-phase summary is accumulated online at span close, so ring
///    overflow (which drops the oldest timeline events) never loses
///    aggregate statistics.
///  - Disabled tracing costs one relaxed atomic load per call site and
///    performs no allocation (see test_obs_trace DisabledTracingAllocates
///    Nothing).

namespace obs {

class Tracer;

/// One named integer attached to a span/instant (DMA bytes, flops, ...).
/// `name` must outlive the tracer: a string literal or Tracer::intern().
struct Counter {
  const char* name;
  std::uint64_t value;
};
using CounterList = std::span<const Counter>;

enum class ClockDomain : std::uint8_t {
  kWall,    ///< host wall clock (microseconds since tracer construction)
  kVirtual  ///< deterministic per-track step counter (one tick per event)
};

/// Chrome trace-event phase of one recorded event.
enum class EventPhase : char {
  kBegin = 'B',
  kEnd = 'E',
  kComplete = 'X',
  kInstant = 'i',
};

/// One recorded timeline event. Fixed size: up to kMaxArgs counters are
/// kept inline for the exported timeline; the summary always receives the
/// full attachment.
struct Event {
  static constexpr std::size_t kMaxArgs = 4;
  const char* name = nullptr;
  double ts = 0.0;   ///< microseconds in the track's clock domain
  double dur = 0.0;  ///< kComplete only
  EventPhase ph = EventPhase::kInstant;
  std::uint8_t nargs = 0;
  std::array<Counter, kMaxArgs> args{};
};

/// Aggregated statistics of one phase (span/complete/instant name).
struct PhaseSummary {
  std::uint64_t count = 0;  ///< closed spans + complete events + instants
  double total_us = 0.0;    ///< summed durations
  double max_us = 0.0;      ///< longest single occurrence
  double self_us = 0.0;     ///< total minus time spent in child spans
  /// Attached counters, summed over occurrences. (Max-semantics counters
  /// such as ldm_peak_bytes are meaningful per occurrence, not summed;
  /// consumers that care use per-launch summary deltas.)
  std::map<std::string, std::uint64_t, std::less<>> counters;
};

/// Phase name -> aggregate, merged over every track of a tracer.
using Summary = std::map<std::string, PhaseSummary, std::less<>>;

/// One timeline row. Single-owner: all recording methods must be called
/// from one thread at a time (the tracer registry hands out stable
/// references, so a rank thread can cache its track across calls).
class Track {
 public:
  const std::string& name() const { return name_; }
  int pid() const { return pid_; }
  int tid() const { return tid_; }

  /// Current time in this track's clock domain, microseconds.
  double now() const;

  // -- recording (no-ops while the tracer is disabled) ---------------------

  /// Open a span at now().
  void begin(const char* name, CounterList args = {});
  /// Close the innermost span at now(); \p args merge into its summary.
  void end(CounterList args = {});
  /// Open/close a span at an explicit (modeled) timestamp.
  void begin_at(const char* name, double ts, CounterList args = {});
  void end_at(double ts, CounterList args = {});
  /// A complete event [t0, t0+dur) at explicit timestamps. Counts as a
  /// child of the currently open span for self-time purposes.
  void complete_at(const char* name, double t0, double dur,
                   CounterList args = {});
  /// A typed point event (counted in the summary with zero duration).
  void instant(const char* name, CounterList args = {});
  void instant_at(const char* name, double ts, CounterList args = {});

  // -- introspection -------------------------------------------------------

  /// Currently open span depth (0 outside any span).
  int depth() const { return static_cast<int>(stack_.size()); }
  /// Events evicted from the ring by overflow (oldest-first policy).
  std::uint64_t dropped() const { return dropped_; }
  /// Events currently retained in the ring.
  std::size_t retained() const { return count_; }
  /// Retained events, oldest first (copies; for tests and export).
  std::vector<Event> events() const;

 private:
  friend class Tracer;
  Track(Tracer* tracer, std::string name, int pid, int tid)
      : tracer_(tracer), name_(std::move(name)), pid_(pid), tid_(tid) {}

  bool recording() const;
  void push(const Event& e);
  void record(EventPhase ph, const char* name, double ts, double dur,
              CounterList args);
  void summarize(std::string_view name, double dur, double self,
                 CounterList args);
  void reset();

  struct OpenSpan {
    const char* name;
    double t0;
    double child_us;
  };

  Tracer* tracer_;
  std::string name_;
  int pid_;
  int tid_;
  double vclock_ = 0.0;
  std::vector<Event> ring_;
  std::size_t ring_cap_ = 0;
  std::size_t head_ = 0;  ///< next write slot
  std::size_t count_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<OpenSpan> stack_;
  Summary summary_;
};

/// The per-process trace collector: a registry of tracks plus the enable
/// switch and clock domain shared by all of them.
class Tracer {
 public:
  explicit Tracer(ClockDomain domain = ClockDomain::kWall);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void enable(bool on = true) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  ClockDomain domain() const { return domain_; }

  /// Ring capacity (events per track) applied to tracks that have not yet
  /// recorded their first event.
  void set_ring_capacity(std::size_t cap) { ring_capacity_ = cap; }
  std::size_t ring_capacity() const { return ring_capacity_; }

  /// Label used as the exported process-name prefix, and the pid offset
  /// applied at export (both for merging several tracers into one file).
  void set_label(std::string label) { label_ = std::move(label); }
  const std::string& label() const { return label_; }
  void set_pid_offset(int off) { pid_offset_ = off; }
  int pid_offset() const { return pid_offset_; }

  /// Get or create the track named \p name. pid/tid are fixed at creation
  /// (later calls with the same name return the existing track). Thread
  /// safe; the returned reference is stable for the tracer's lifetime.
  Track& track(std::string_view name, int pid = 0, int tid = 0);

  /// Intern a dynamic string so its lifetime matches the tracer's (event
  /// names must outlive the ring). Deduplicated; thread safe.
  const char* intern(std::string_view s);

  /// Drop all recorded events, open spans and summaries, keeping the
  /// track registry, capacity and enable state. Quiesce recording threads
  /// first.
  void reset();

  /// Merged per-phase summary over all tracks. Quiesce recorders first.
  Summary summary() const;

  /// The full Chrome trace-event JSON document (deterministic: tracks
  /// ordered by (pid, tid, name), events in ring order).
  std::string chrome_trace() const;
  bool write_chrome_trace(const std::string& path) const;

  /// Wall-clock microseconds since construction (the kWall time base).
  double wall_now_us() const;

 private:
  friend class Track;

  void append_events(std::string& out, bool& first) const;
  friend std::string chrome_trace(std::span<Tracer* const> tracers);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Track>> tracks_;
  std::deque<std::string> interned_;
  std::map<std::string, const char*, std::less<>> intern_index_;
  std::atomic<bool> enabled_{false};
  std::size_t ring_capacity_ = 65536;
  ClockDomain domain_;
  std::chrono::steady_clock::time_point epoch_;
  std::string label_;
  int pid_offset_ = 0;
};

/// RAII span usable with a nullable track (no-op when \p t is null).
class ScopedSpan {
 public:
  ScopedSpan(Track* t, const char* name) : t_(t) {
    if (t_ != nullptr) t_->begin(name);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (t_ != nullptr) t_->end();
  }

 private:
  Track* t_;
};

/// Merge several tracers into one Chrome trace document. Each tracer's
/// pids are shifted by its pid_offset() and its label() prefixes the
/// exported process names, so e.g. an "original" and an "overlap" run can
/// land side by side in one Perfetto view.
std::string chrome_trace(std::span<Tracer* const> tracers);
bool write_chrome_trace(const std::string& path,
                        std::span<Tracer* const> tracers);

// -- summary helpers --------------------------------------------------------

/// Total duration (us) over phases whose name equals \p prefix or starts
/// with "<prefix>:".
double phase_total_us(const Summary& s, std::string_view prefix);
/// Occurrence count over the same phase-name match.
std::uint64_t phase_count(const Summary& s, std::string_view prefix);
/// Sum of attached counter \p key over the same phase-name match.
std::uint64_t phase_counter(const Summary& s, std::string_view prefix,
                            std::string_view key);
/// phase_counter as a delta between two summary snapshots (for isolating
/// one launch out of an accumulating tracer).
std::uint64_t phase_counter_delta(const Summary& before, const Summary& after,
                                  std::string_view prefix,
                                  std::string_view key);

}  // namespace obs
