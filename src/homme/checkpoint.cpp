#include "homme/checkpoint.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <utility>

namespace homme {

using mesh::kNpp;

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int b = 0; b < 8; ++b) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[i] = c;
  }
  return t;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kFlagLimitTracers = 1u << 0;
constexpr std::uint32_t kFlagHypervisOn = 1u << 1;
constexpr std::uint32_t kFlagMoist = 1u << 2;

template <typename T>
void put(std::vector<std::uint8_t>& out, T v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

void put_payload(std::vector<std::uint8_t>& out, std::span<const double> field) {
  put<std::uint64_t>(out, field.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(field.data());
  const std::size_t bytes = field.size() * sizeof(double);
  out.insert(out.end(), p, p + bytes);
  put<std::uint32_t>(out, crc32(p, bytes));
}

struct Reader {
  std::span<const std::uint8_t> buf;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (pos + n > buf.size()) {
      throw CheckpointError("checkpoint: truncated image (need " +
                            std::to_string(n) + " bytes at offset " +
                            std::to_string(pos) + ", have " +
                            std::to_string(buf.size() - pos) + ")");
    }
  }
  template <typename T>
  T get() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, buf.data() + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }
  const std::uint8_t* raw(std::size_t n) {
    need(n);
    const std::uint8_t* p = buf.data() + pos;
    pos += n;
    return p;
  }
};

/// The nelem..nu header block SWCK and SWDK share, flags packed.
void put_info(std::vector<std::uint8_t>& out, const CheckpointInfo& info) {
  std::uint32_t flags = 0;
  if (info.config.limit_tracers) flags |= kFlagLimitTracers;
  if (info.config.hypervis_on) flags |= kFlagHypervisOn;
  if (info.dims.moist) flags |= kFlagMoist;
  put<std::uint64_t>(out, info.nelem);
  put<std::int32_t>(out, info.dims.nlev);
  put<std::int32_t>(out, info.dims.qsize);
  put<std::uint32_t>(out, flags);
  put<std::int32_t>(out, info.config.remap_freq);
  put<std::int64_t>(out, info.step_count);
  put<std::uint64_t>(out, info.rng_seed);
  put<double>(out, info.config.dt);
  put<double>(out, info.nu);
}

CheckpointInfo get_info(Reader& r) {
  CheckpointInfo info;
  info.nelem = r.get<std::uint64_t>();
  info.dims.nlev = r.get<std::int32_t>();
  info.dims.qsize = r.get<std::int32_t>();
  const auto flags = r.get<std::uint32_t>();
  info.config.remap_freq = r.get<std::int32_t>();
  info.step_count = r.get<std::int64_t>();
  info.rng_seed = r.get<std::uint64_t>();
  info.config.dt = r.get<double>();
  info.nu = r.get<double>();
  info.config.limit_tracers = (flags & kFlagLimitTracers) != 0;
  info.config.hypervis_on = (flags & kFlagHypervisOn) != 0;
  info.dims.moist = (flags & kFlagMoist) != 0;
  return info;
}

/// Magic, then version (checked before any CRC, so a future format fails
/// by name rather than by checksum).
void get_magic_version(Reader& r, std::uint32_t magic, std::uint32_t version,
                       const std::string& what, const char* format) {
  if (r.get<std::uint32_t>() != magic) {
    throw CheckpointError(what + ": bad magic (not " + format + ")");
  }
  const auto v = r.get<std::uint32_t>();
  if (v != version) {
    throw CheckpointError(what + ": unsupported version " +
                          std::to_string(v) + " (this build reads " +
                          std::to_string(version) + ")");
  }
}

/// The header CRC32 at the read position, over every byte before it.
void check_header_crc(Reader& r, const std::string& what) {
  const std::uint32_t actual = crc32(r.buf.data(), r.pos);
  const auto stored = r.get<std::uint32_t>();
  if (stored != actual) {
    throw CheckpointError(what + ": header CRC mismatch (stored " +
                          std::to_string(stored) + ", computed " +
                          std::to_string(actual) + ")");
  }
}

void get_payload(Reader& r, Chunk& field, std::size_t expected,
                 const char* name, std::size_t elem) {
  const auto count = r.get<std::uint64_t>();
  if (count != expected) {
    throw CheckpointError(
        "checkpoint: field " + std::string(name) + " of element " +
        std::to_string(elem) + " has " + std::to_string(count) +
        " values, expected " + std::to_string(expected));
  }
  const std::size_t bytes = static_cast<std::size_t>(count) * sizeof(double);
  const std::uint8_t* p = r.raw(bytes);
  const auto stored = r.get<std::uint32_t>();
  const std::uint32_t actual = crc32(p, bytes);
  if (stored != actual) {
    throw CheckpointError(
        "checkpoint: CRC mismatch in field " + std::string(name) +
        " of element " + std::to_string(elem) + " (stored " +
        std::to_string(stored) + ", computed " + std::to_string(actual) + ")");
  }
  field.assign_bytes(p, count);
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& image) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    throw CheckpointError("checkpoint: cannot open " + path + " for writing");
  }
  f.write(reinterpret_cast<const char*>(image.data()),
          static_cast<std::streamsize>(image.size()));
  if (!f) throw CheckpointError("checkpoint: short write to " + path);
}

/// Whole-file read; nullopt when \p path cannot be opened.
std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) return std::nullopt;
  const std::streamsize n = f.tellg();
  f.seekg(0);
  std::vector<std::uint8_t> image(static_cast<std::size_t>(n));
  f.read(reinterpret_cast<char*>(image.data()), n);
  if (!f) throw CheckpointError("checkpoint: short read from " + path);
  return image;
}

}  // namespace

std::vector<std::uint8_t> serialize_checkpoint(const CheckpointInfo& info,
                                               const State& s) {
  if (info.nelem != s.size()) {
    throw CheckpointError("checkpoint: info.nelem (" +
                          std::to_string(info.nelem) + ") != state size (" +
                          std::to_string(s.size()) + ")");
  }
  std::vector<std::uint8_t> out;
  put<std::uint32_t>(out, kCheckpointMagic);
  put<std::uint32_t>(out, kCheckpointVersion);
  put_info(out, info);
  put<std::uint32_t>(out, crc32(out.data(), out.size()));

  for (const ElementState& es : s) {
    put_payload(out, es.u1.span());
    put_payload(out, es.u2.span());
    put_payload(out, es.T.span());
    put_payload(out, es.dp.span());
    put_payload(out, es.qdp.span());
    put_payload(out, es.phis.span());
  }
  return out;
}

CheckpointInfo deserialize_checkpoint(std::span<const std::uint8_t> image,
                                      State& s) {
  Reader r{image};
  get_magic_version(r, kCheckpointMagic, kCheckpointVersion, "checkpoint",
                    "SWCK");
  const CheckpointInfo info = get_info(r);
  check_header_crc(r, "checkpoint");
  if (info.dims.nlev <= 0 || info.dims.qsize < 0) {
    throw CheckpointError("checkpoint: implausible dims (nlev=" +
                          std::to_string(info.dims.nlev) + ", qsize=" +
                          std::to_string(info.dims.qsize) + ")");
  }

  const std::size_t fs = info.dims.field_size();
  s.assign(static_cast<std::size_t>(info.nelem), ElementState(info.dims));
  for (std::size_t e = 0; e < s.size(); ++e) {
    ElementState& es = s[e];
    get_payload(r, es.u1, fs, "u1", e);
    get_payload(r, es.u2, fs, "u2", e);
    get_payload(r, es.T, fs, "T", e);
    get_payload(r, es.dp, fs, "dp", e);
    get_payload(r, es.qdp, static_cast<std::size_t>(info.dims.qsize) * fs,
                "qdp", e);
    get_payload(r, es.phis, kNpp, "phis", e);
  }
  if (r.pos != image.size()) {
    throw CheckpointError("checkpoint: " +
                          std::to_string(image.size() - r.pos) +
                          " trailing bytes after last record");
  }
  return info;
}

void save_checkpoint(const std::string& path, const CheckpointInfo& info,
                     const State& s) {
  write_file(path, serialize_checkpoint(info, s));
}

CheckpointInfo load_checkpoint(const std::string& path, State& s) {
  const auto image = read_file(path);
  if (!image) throw CheckpointError("checkpoint: cannot open " + path);
  return deserialize_checkpoint(*image, s);
}

std::string checkpoint_rank_path(const std::string& base, int rank) {
  return base + ".r" + std::to_string(rank);
}

// ---------------------------------------------------------------------------
// Delta checkpoints
// ---------------------------------------------------------------------------

namespace {

std::string delta_path(const std::string& base, int k) {
  return base + ".d" + std::to_string(k);
}

std::string full_path(const std::string& base) { return base + ".full"; }

/// Expected double count of chunk \p id given the header dims.
std::size_t chunk_expected_size(std::size_t id, const Dims& d) {
  switch (id % kChunksPerElement) {
    case 4:
      return static_cast<std::size_t>(d.qsize) * d.field_size();
    case 5:
      return kNpp;
    default:
      return d.field_size();
  }
}

}  // namespace

std::vector<std::uint32_t> chunk_crcs(const State& s) {
  std::vector<std::uint32_t> crcs;
  crcs.reserve(s.size() * kChunksPerElement);
  for (std::size_t id = 0; id < s.size() * kChunksPerElement; ++id) {
    const Chunk& c = state_chunk(s, id);
    crcs.push_back(crc32(c.data(), c.size_bytes()));
  }
  return crcs;
}

std::vector<std::uint8_t> serialize_delta_checkpoint(
    const CheckpointInfo& info, const State& s, std::uint64_t base_seq,
    std::uint64_t seq, std::vector<std::uint32_t>& crcs,
    std::uint64_t* chunks_written) {
  if (info.nelem != s.size()) {
    throw CheckpointError("delta checkpoint: info.nelem (" +
                          std::to_string(info.nelem) + ") != state size (" +
                          std::to_string(s.size()) + ")");
  }
  const std::size_t nchunks = s.size() * kChunksPerElement;
  if (crcs.size() != nchunks) {
    throw CheckpointError(
        "delta checkpoint: CRC cache has " + std::to_string(crcs.size()) +
        " entries, state has " + std::to_string(nchunks) + " chunks");
  }

  // Find the dirty set first (record count goes into the header).
  std::vector<std::uint64_t> dirty;
  for (std::size_t id = 0; id < nchunks; ++id) {
    const Chunk& c = state_chunk(s, id);
    const std::uint32_t crc = crc32(c.data(), c.size_bytes());
    if (crc != crcs[id]) {
      dirty.push_back(id);
      crcs[id] = crc;
    }
  }

  std::vector<std::uint8_t> out;
  put<std::uint32_t>(out, kDeltaMagic);
  put<std::uint32_t>(out, kDeltaVersion);
  put<std::uint64_t>(out, base_seq);
  put<std::uint64_t>(out, seq);
  put_info(out, info);
  put<std::uint64_t>(out, dirty.size());
  put<std::uint32_t>(out, crc32(out.data(), out.size()));

  for (const std::uint64_t id : dirty) {
    put<std::uint64_t>(out, id);
    put_payload(out, state_chunk(s, static_cast<std::size_t>(id)).span());
  }
  if (chunks_written != nullptr) *chunks_written = dirty.size();
  return out;
}

DeltaInfo apply_delta_checkpoint(std::span<const std::uint8_t> image,
                                 State& s) {
  Reader r{image};
  get_magic_version(r, kDeltaMagic, kDeltaVersion, "delta checkpoint", "SWDK");
  DeltaInfo di;
  di.base_seq = r.get<std::uint64_t>();
  di.seq = r.get<std::uint64_t>();
  di.info = get_info(r);
  const CheckpointInfo& info = di.info;
  const auto nrecords = r.get<std::uint64_t>();
  check_header_crc(r, "delta checkpoint");
  if (info.nelem != s.size()) {
    throw CheckpointError(
        "delta checkpoint: record is for " + std::to_string(info.nelem) +
        " elements, state holds " + std::to_string(s.size()) +
        " (chain applied out of order?)");
  }
  const std::size_t nchunks = s.size() * kChunksPerElement;

  for (std::uint64_t rec = 0; rec < nrecords; ++rec) {
    const auto id = r.get<std::uint64_t>();
    if (id >= nchunks) {
      throw CheckpointError("delta checkpoint: chunk id " +
                            std::to_string(id) + " out of range (state has " +
                            std::to_string(nchunks) + " chunks)");
    }
    const std::size_t expected =
        chunk_expected_size(static_cast<std::size_t>(id), info.dims);
    get_payload(r, state_chunk(s, static_cast<std::size_t>(id)), expected,
                "chunk", static_cast<std::size_t>(id));
  }
  if (r.pos != image.size()) {
    throw CheckpointError("delta checkpoint: " +
                          std::to_string(image.size() - r.pos) +
                          " trailing bytes after last record");
  }
  di.chunks_written = nrecords;
  return di;
}

DeltaCheckpointWriter::SaveRecord DeltaCheckpointWriter::save(
    const CheckpointInfo& info, const State& s) {
  const std::size_t nchunks = s.size() * kChunksPerElement;
  SaveRecord rec;
  rec.seq = seq_++;
  rec.chunks_total = nchunks;

  const bool full = prev_crcs_.size() != nchunks ||
                    delta_index_ + 1 >= full_interval_;
  if (full) {
    // Drop the previous chain's deltas before overwriting the full image:
    // a crash between the two operations leaves the old full with no
    // deltas — a consistent (if older) restore point.
    for (int k = 1; std::remove(delta_path(base_, k).c_str()) == 0; ++k) {
    }
    const std::vector<std::uint8_t> image = serialize_checkpoint(info, s);
    write_file(full_path(base_), image);
    prev_crcs_ = chunk_crcs(s);
    base_seq_ = rec.seq;
    delta_index_ = 0;
    rec.full = true;
    rec.bytes = image.size();
    rec.chunks_written = nchunks;
    ++totals_.fulls;
  } else {
    std::uint64_t cw = 0;
    const std::vector<std::uint8_t> image = serialize_delta_checkpoint(
        info, s, base_seq_, rec.seq, prev_crcs_, &cw);
    write_file(delta_path(base_, ++delta_index_), image);
    rec.bytes = image.size();
    rec.chunks_written = static_cast<std::size_t>(cw);
    ++totals_.deltas;
  }
  ++totals_.saves;
  totals_.bytes_written += rec.bytes;
  totals_.chunks_written += rec.chunks_written;
  totals_.chunk_slots += nchunks;
  return rec;
}

DeltaCheckpointWriter::Totals& DeltaCheckpointWriter::Totals::operator+=(
    const Totals& o) {
  saves += o.saves;
  fulls += o.fulls;
  deltas += o.deltas;
  bytes_written += o.bytes_written;
  chunks_written += o.chunks_written;
  chunk_slots += o.chunk_slots;
  return *this;
}

bool DeltaCheckpointWriter::has_chain(const std::string& base) {
  return std::ifstream(full_path(base)).is_open();
}

CheckpointInfo DeltaCheckpointWriter::restore_chain(const std::string& base,
                                                    State& s) {
  CheckpointInfo info = load_checkpoint(full_path(base), s);
  std::uint64_t chain_base = 0;
  std::uint64_t prev_seq = 0;
  for (int k = 1;; ++k) {
    const std::string path = delta_path(base, k);
    const auto image = read_file(path);
    if (!image) break;
    const DeltaInfo di = apply_delta_checkpoint(*image, s);
    if (k == 1) {
      chain_base = di.base_seq;
    } else if (di.base_seq != chain_base || di.seq != prev_seq + 1) {
      throw CheckpointError(
          "delta checkpoint: broken chain at " + path + " (base_seq " +
          std::to_string(di.base_seq) + ", seq " + std::to_string(di.seq) +
          " after seq " + std::to_string(prev_seq) + ")");
    }
    prev_seq = di.seq;
    info = di.info;
  }
  return info;
}

// ---------------------------------------------------------------------------
// AsyncCheckpointWriter
// ---------------------------------------------------------------------------

AsyncCheckpointWriter::AsyncCheckpointWriter(std::string base,
                                             int full_interval,
                                             std::size_t max_pending)
    : writer_(std::move(base), full_interval),
      max_pending_(max_pending > 0 ? max_pending : 1),
      thread_([this] { writer_loop(); }) {}

AsyncCheckpointWriter::~AsyncCheckpointWriter() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_space_.notify_all();
  cv_done_.notify_all();
  thread_.join();
}

void AsyncCheckpointWriter::save(const CheckpointInfo& info, const State& s) {
  std::unique_lock<std::mutex> lk(mu_);
  if (error_ != nullptr) std::rethrow_exception(std::exchange(error_, nullptr));
  if (queue_.size() >= max_pending_) {
    ++stats_.blocked_saves;
    // Deliberately ignore stop_ here: an accepted save must reach disk
    // even when the destructor races us (the writer loop will not exit
    // while save_waiters_ > 0, so it always frees a slot eventually).
    // The old early-return on stop_ silently dropped the caller's final
    // checkpoint during teardown.
    ++save_waiters_;
    cv_done_.wait(lk, [&] { return queue_.size() < max_pending_; });
    --save_waiters_;
  }
  // State copy = COW snapshot: O(nchunks) refcount bumps, no field data
  // moves. The stepping thread's next write to any chunk un-shares it,
  // leaving this snapshot's view frozen.
  queue_.push_back(Pending{info, s});
  cv_space_.notify_one();
}

void AsyncCheckpointWriter::set_write_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lk(mu_);
  write_hook_ = std::move(hook);
}

void AsyncCheckpointWriter::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return (queue_.empty() && !busy_) || stop_; });
  if (error_ != nullptr) std::rethrow_exception(std::exchange(error_, nullptr));
}

AsyncCheckpointWriter::Stats AsyncCheckpointWriter::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void AsyncCheckpointWriter::writer_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // Exit only once the queue is drained AND no save() is still waiting
    // to enqueue — a blocked save's snapshot must reach disk, not die
    // with the thread.
    cv_space_.wait(lk, [&] {
      return !queue_.empty() || (stop_ && save_waiters_ == 0);
    });
    if (queue_.empty() && stop_ && save_waiters_ == 0) return;
    Pending job = std::move(queue_.front());
    queue_.pop_front();
    busy_ = true;
    // The queue slot frees at pop time, not when the write lands: a
    // save() blocked on a full queue must not have to wait out the
    // (possibly slow) disk write of the job that made room for it.
    // drain() is not fooled — its predicate also requires !busy_.
    cv_done_.notify_all();
    const std::function<void()> hook = write_hook_;
    lk.unlock();

    std::exception_ptr err;
    try {
      if (hook) hook();
      writer_.save(job.info, job.snapshot);
    } catch (...) {
      err = std::current_exception();
    }
    // Release the snapshot's chunk refs outside the lock.
    job.snapshot.clear();

    lk.lock();
    busy_ = false;
    if (err != nullptr && error_ == nullptr) error_ = err;
    // writer_ is only touched on this thread; a failed save left its
    // totals as they were.
    static_cast<DeltaCheckpointWriter::Totals&>(stats_) = writer_.totals();
    cv_done_.notify_all();
  }
}

// ---------------------------------------------------------------------------
// StateMonitor
// ---------------------------------------------------------------------------

std::optional<std::string> StateMonitor::check(const State& s) const {
  const int nlev = dims_.nlev;
  for (std::size_t e = 0; e < s.size(); ++e) {
    const ElementState& es = s[e];
    const std::pair<const char*, std::span<const double>> fields[] = {
        {"u1", es.u1.span()},   {"u2", es.u2.span()},
        {"T", es.T.span()},     {"dp", es.dp.span()},
        {"qdp", es.qdp.span()}, {"phis", es.phis.span()}};
    for (const auto& [name, vec] : fields) {
      for (std::size_t f = 0; f < vec.size(); ++f) {
        if (!std::isfinite(vec[f])) {
          return "non-finite " + std::string(name) + " at element " +
                 std::to_string(e) + ", lev " +
                 std::to_string(f / kNpp) + ", gll " +
                 std::to_string(f % kNpp);
        }
      }
    }
    for (int k = 0; k < kNpp; ++k) {
      double ps = kPtop;
      for (int lev = 0; lev < nlev; ++lev) {
        const double dp = es.dp[fidx(lev, k)];
        if (dp <= 0.0) {
          return "non-positive layer mass dp=" + std::to_string(dp) +
                 " at element " + std::to_string(e) + ", lev " +
                 std::to_string(lev) + ", gll " + std::to_string(k);
        }
        ps += dp;
      }
      if (ps < kPsMin || ps > kPsMax) {
        return "surface pressure " + std::to_string(ps) +
               " Pa outside [" + std::to_string(kPsMin) + ", " +
               std::to_string(kPsMax) + "] at element " + std::to_string(e) +
               ", gll " + std::to_string(k);
      }
    }
  }
  return std::nullopt;
}

}  // namespace homme
