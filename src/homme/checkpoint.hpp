#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "homme/driver.hpp"
#include "homme/state.hpp"

/// \file checkpoint.hpp
/// Versioned binary checkpoints of the dycore state and an invariant
/// monitor over that state.
///
/// Multi-day runs across tens of thousands of nodes (the paper's 3-km
/// production configuration) cannot restart from step 0 after a node
/// failure. The resilience layer here gives the mini dycore the same
/// machinery: periodic checkpoints with per-field CRCs, and a
/// StateMonitor that catches physically impossible states (NaN,
/// non-positive layer mass, runaway surface pressure) before they
/// propagate — model::Session turns a violation into ModelBlowup, and
/// svc::Server retries the member from its last checkpoint. Restart from
/// a checkpoint is bit-identical to never having stopped.
///
/// Checkpoint format (native-endian, in-process):
///   header  : magic "SWCK" (0x5357434B), version, nelem, nlev, qsize,
///             flags (bit0 limit_tracers, bit1 hypervis_on, bit2 moist),
///             remap_freq, step_count, rng_seed, dt, nu, header CRC32
///   records : per element, fields u1, u2, T, dp, qdp, phis in order,
///             each as (count:u64, doubles, payload CRC32)
/// Version is checked before the CRC so a reader of a future format fails
/// with "unsupported version" rather than a checksum mismatch.
///
/// Delta checkpoint format ("SWDK", native-endian), layered on top:
///   header  : magic "SWDK" (0x5357444B), version, base_seq, seq, then the
///             same nelem..nu fields as SWCK, nrecords, header CRC32
///   records : per dirty chunk, (chunk_id:u64, count:u64, doubles,
///             payload CRC32), chunk ids as in state_chunk()
/// A chain is "<base>.full" (a plain SWCK image, written every K saves)
/// followed by "<base>.d1", ".d2", ... each carrying only the chunks whose
/// CRC32 changed since the previous save. Dirtiness is tracked by cached
/// per-chunk CRCs, so an unchanged-CRC collision (1 in 2^32 per changed
/// chunk) would silently drop that chunk's update — acceptable for the
/// rollback cadence this serves, and the restore path still validates
/// every payload it does carry.

namespace homme {

inline constexpr std::uint32_t kCheckpointMagic = 0x5357434Bu;  // "SWCK"
inline constexpr std::uint32_t kCheckpointVersion = 1;
inline constexpr std::uint32_t kDeltaMagic = 0x5357444Bu;  // "SWDK"
inline constexpr std::uint32_t kDeltaVersion = 1;
/// Byte offset of the version field inside a serialized checkpoint
/// (immediately after the magic); exposed so tests can patch it.
inline constexpr std::size_t kCheckpointVersionOffset = sizeof(std::uint32_t);

/// A checkpoint could not be written, read, or validated.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Everything a checkpoint carries besides the field data itself.
struct CheckpointInfo {
  std::uint64_t nelem = 0;  ///< elements serialized (rank-local count)
  Dims dims;
  DycoreConfig config;
  double nu = 0.0;  ///< the dycore's resolved nabla^4 coefficient, m^4/s
  std::int64_t step_count = 0;
  std::uint64_t rng_seed = 0;  ///< caller-defined (e.g. fault-plan seed)
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of \p n bytes.
std::uint32_t crc32(const void* data, std::size_t n);

/// Serialize \p info + \p s into a self-validating byte image.
std::vector<std::uint8_t> serialize_checkpoint(const CheckpointInfo& info,
                                               const State& s);

/// Inverse of serialize_checkpoint: validates magic, version, header CRC
/// and every payload CRC, resizes \p s, and returns the header. Throws
/// CheckpointError on any mismatch.
CheckpointInfo deserialize_checkpoint(std::span<const std::uint8_t> image,
                                      State& s);

/// File round trip.
void save_checkpoint(const std::string& path, const CheckpointInfo& info,
                     const State& s);
CheckpointInfo load_checkpoint(const std::string& path, State& s);

/// Chain base of rank \p rank's checkpoints: "<base>.r<rank>". Every
/// model::Session rank writes its own delta chain under it
/// ("<base>.r<rank>.full" plus "<base>.r<rank>.dN"), one rank included.
std::string checkpoint_rank_path(const std::string& base, int rank);

// ---------------------------------------------------------------------------
// Delta checkpoints
// ---------------------------------------------------------------------------

/// CRC32 of every chunk of \p s, indexed as in state_chunk().
std::vector<std::uint32_t> chunk_crcs(const State& s);

/// What a delta record carries besides the chunk payloads.
struct DeltaInfo {
  CheckpointInfo info;
  std::uint64_t base_seq = 0;  ///< save seq of the full image it chains from
  std::uint64_t seq = 0;       ///< save seq of this record
  std::uint64_t chunks_written = 0;
};

/// Serialize only the chunks of \p s whose CRC32 differs from \p crcs
/// (the previous save's cache, one entry per chunk). \p crcs is updated
/// in place to this state's CRCs. \p chunks_written, if non-null, gets
/// the dirty-record count.
std::vector<std::uint8_t> serialize_delta_checkpoint(
    const CheckpointInfo& info, const State& s, std::uint64_t base_seq,
    std::uint64_t seq, std::vector<std::uint32_t>& crcs,
    std::uint64_t* chunks_written = nullptr);

/// Apply a delta record onto \p s (which must already hold the chain's
/// preceding image). Validates magic, version, header CRC, every payload
/// CRC, and that chunk ids/sizes match the state. Throws CheckpointError.
DeltaInfo apply_delta_checkpoint(std::span<const std::uint8_t> image,
                                 State& s);

/// Synchronous delta-chain writer: a full SWCK image every
/// \p full_interval saves ("<base>.full"), dirty-chunk SWDK records
/// between ("<base>.d1", ".d2", ...). full_interval <= 1 means every save
/// is a full image.
class DeltaCheckpointWriter {
 public:
  DeltaCheckpointWriter(std::string base, int full_interval)
      : base_(std::move(base)),
        full_interval_(full_interval > 1 ? full_interval : 1) {}

  struct SaveRecord {
    std::uint64_t seq = 0;
    bool full = false;
    std::size_t bytes = 0;           ///< serialized image size
    std::size_t chunks_written = 0;  ///< records in this save
    std::size_t chunks_total = 0;    ///< chunk slots in the state
  };
  SaveRecord save(const CheckpointInfo& info, const State& s);

  /// Load "<base>.full" then apply every "<base>.dN" in order, validating
  /// chain continuity (consecutive seqs, one base). Returns the newest
  /// header (whose step_count reflects the last applied record).
  static CheckpointInfo restore_chain(const std::string& base, State& s);
  /// True when "<base>.full" exists, i.e. there is a chain to restore.
  static bool has_chain(const std::string& base);

  struct Totals {
    std::uint64_t saves = 0, fulls = 0, deltas = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t chunks_written = 0;  ///< records actually serialized
    std::uint64_t chunk_slots = 0;     ///< chunk slots across all saves
    Totals& operator+=(const Totals& o);
  };
  const Totals& totals() const { return totals_; }
  const std::string& base() const { return base_; }

 private:
  std::string base_;
  int full_interval_;
  std::uint64_t seq_ = 0;       ///< next save's sequence number
  std::uint64_t base_seq_ = 0;  ///< seq of the chain's full image
  int delta_index_ = 0;         ///< deltas written since the last full
  std::vector<std::uint32_t> prev_crcs_;
  Totals totals_;
};

/// Asynchronous front end: save() takes a COW snapshot of the state
/// (refcount bumps only — the stepping thread's next writes un-share) and
/// hands it to a background thread that serializes and writes the delta
/// chain. The queue is double-buffered: at most \p max_pending snapshots
/// are in flight and save() blocks only when both slots are taken, so the
/// step loop is decoupled from checkpoint I/O.
///
/// Shutdown ordering guarantee: destruction flushes — every save() that
/// has been accepted (enqueued OR still blocked waiting for a queue slot)
/// reaches disk before the writer thread exits. A Session torn down with
/// a buffered final checkpoint in flight therefore never loses it; the
/// background loop keeps draining until the queue is empty and no save()
/// is waiting, and only then honors the stop flag.
class AsyncCheckpointWriter {
 public:
  explicit AsyncCheckpointWriter(std::string base, int full_interval = 1,
                                 std::size_t max_pending = 2);
  ~AsyncCheckpointWriter();  ///< drains the queue, joins the thread

  AsyncCheckpointWriter(const AsyncCheckpointWriter&) = delete;
  AsyncCheckpointWriter& operator=(const AsyncCheckpointWriter&) = delete;

  /// Snapshot + enqueue. Rethrows a background write error, if any.
  void save(const CheckpointInfo& info, const State& s);

  /// Test hook: called by the background thread before each disk write,
  /// outside the queue lock. Lets shutdown-ordering tests hold the writer
  /// mid-flight deterministically. Set before the first save().
  void set_write_hook(std::function<void()> hook);

  /// Block until every queued save is on disk; rethrows the first
  /// background error.
  void drain();

  /// The synchronous writer's totals as of the last finished save, plus
  /// the queue's own count.
  struct Stats : DeltaCheckpointWriter::Totals {
    std::uint64_t blocked_saves = 0;  ///< save() calls that had to wait
    Stats& operator+=(const Stats& o) {
      Totals::operator+=(o);
      blocked_saves += o.blocked_saves;
      return *this;
    }
  };
  Stats stats() const;
  const std::string& base() const { return writer_.base(); }

 private:
  struct Pending {
    CheckpointInfo info;
    State snapshot;
  };
  void writer_loop();

  DeltaCheckpointWriter writer_;
  std::size_t max_pending_;
  mutable std::mutex mu_;
  std::condition_variable cv_space_, cv_done_;
  std::deque<Pending> queue_;
  std::size_t save_waiters_ = 0;  ///< save() calls blocked on a full queue
  bool stop_ = false;
  bool busy_ = false;
  std::exception_ptr error_;
  Stats stats_;
  std::function<void()> write_hook_;
  std::thread thread_;
};

/// Invariant guard over a dycore state. A healthy state has finite
/// fields, strictly positive layer thickness, and a surface pressure
/// p_s = ptop + sum_k dp_k inside [kPsMin, kPsMax] in every column.
class StateMonitor {
 public:
  /// Pa: ~100 hPa, below any terrestrial surface, and twice the
  /// reference surface pressure.
  static constexpr double kPsMin = 1.0e4;
  static constexpr double kPsMax = 2.0e5;

  explicit StateMonitor(const Dims& d) : dims_(d) {}

  /// First violation found, or empty if the state is healthy. The
  /// message names the element, field, level and GLL point.
  std::optional<std::string> check(const State& s) const;

 private:
  Dims dims_;
};

}  // namespace homme
