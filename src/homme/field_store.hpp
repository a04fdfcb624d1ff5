#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

/// \file field_store.hpp
/// Copy-on-write field chunks — the storage layer under homme::State.
///
/// The ensemble layer (svc::Engine, model::Session::fork) wants thousands
/// of members per node, but perturbed members differ only where dynamics
/// has actually touched the state. A Chunk is a refcounted handle to one
/// field's payload: copying a Chunk (and therefore an ElementState or a
/// whole State) aliases the payload, and the first write through
/// mutable_span() un-shares exactly that chunk. Freshly-forked members
/// cost refcount bumps, not field copies — the same sharing structure the
/// paper's redesign applies to mesh constants, extended here to the
/// prognostic fields themselves.
///
/// Thread-safety contract: distinct Chunk handles to one payload may be
/// used from different threads as long as writers go through
/// mutable_span(). The refcount is atomic; mutable_span() copies first
/// and releases the shared buffer afterwards, so a concurrent reader
/// (e.g. the async checkpoint writer serializing a snapshot) only ever
/// sees immutable bytes. Writing in place is allowed only when the
/// acquire-load of the refcount observes 1, which synchronizes with the
/// release-decrement of the other owner's destructor.

namespace homme {

/// Refcounted copy-on-write handle to one field payload. Reads are const
/// and alias-transparent; all writes must go through mutable_span().
class Chunk {
 public:
  Chunk() = default;
  explicit Chunk(std::size_t n, double fill = 0.0) : buf_(new Buf(n, fill)) {}

  Chunk(const Chunk& o) noexcept : buf_(o.buf_) { retain(buf_); }
  Chunk(Chunk&& o) noexcept : buf_(std::exchange(o.buf_, nullptr)) {}
  Chunk& operator=(const Chunk& o) noexcept {
    retain(o.buf_);
    release(std::exchange(buf_, o.buf_));
    return *this;
  }
  Chunk& operator=(Chunk&& o) noexcept {
    release(std::exchange(buf_, std::exchange(o.buf_, nullptr)));
    return *this;
  }
  ~Chunk() { release(buf_); }

  // -- const reads (never allocate, never un-share) -------------------------
  std::size_t size() const { return buf_ != nullptr ? buf_->data.size() : 0; }
  bool empty() const { return size() == 0; }
  std::size_t size_bytes() const { return size() * sizeof(double); }
  const double* data() const {
    return buf_ != nullptr ? buf_->data.data() : nullptr;
  }
  const double* begin() const { return data(); }
  const double* end() const { return data() + size(); }
  double operator[](std::size_t i) const { return buf_->data[i]; }
  std::span<const double> span() const { return {data(), size()}; }

  // -- the one write path ---------------------------------------------------

  /// Writable view; un-shares (copies) the payload first when any other
  /// handle still aliases it. The copy happens before the shared buffer
  /// is released, so concurrent readers of other handles are unaffected.
  std::span<double> mutable_span() {
    if (buf_ == nullptr) return {};
    if (buf_->refs.load(std::memory_order_acquire) > 1) {
      Buf* copy = new Buf(buf_->data);
      release(std::exchange(buf_, copy));
    }
    return {buf_->data.data(), buf_->data.size()};
  }

  /// Replace the payload wholesale (fresh unshared buffer); used by
  /// deserialization, where the old contents are dead anyway.
  void assign(const double* src, std::size_t n) {
    release(std::exchange(buf_, new Buf(src, n)));
  }

  /// assign() from possibly-unaligned memory holding \p n doubles (e.g. a
  /// checkpoint image, whose payloads are not 8-byte aligned).
  void assign_bytes(const void* src, std::size_t n) {
    Buf* b = new Buf(n, 0.0);
    // An empty payload (no tracers) has a null data(); memcpy must not
    // see it even for zero bytes.
    if (n > 0) std::memcpy(b->data.data(), src, n * sizeof(double));
    release(std::exchange(buf_, b));
  }

  // -- sharing introspection -------------------------------------------------
  std::uint32_t use_count() const {
    return buf_ != nullptr ? buf_->refs.load(std::memory_order_acquire) : 0;
  }
  bool shared() const { return use_count() > 1; }
  /// Identity of the underlying buffer (aliasing tests, dedup in stats).
  const void* buffer_id() const { return buf_; }

  friend void swap(Chunk& a, Chunk& b) noexcept { std::swap(a.buf_, b.buf_); }

  /// Value comparison (aliasing handles short-circuit to true).
  friend bool operator==(const Chunk& a, const Chunk& b) {
    return a.buf_ == b.buf_ ||
           (a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin()));
  }

 private:
  struct Buf {
    Buf(std::size_t n, double fill) : data(n, fill) {}
    explicit Buf(const std::vector<double>& d) : data(d) {}
    Buf(const double* src, std::size_t n) : data(src, src + n) {}
    std::atomic<std::uint32_t> refs{1};
    std::vector<double> data;
  };

  static void retain(Buf* b) noexcept {
    if (b != nullptr) b->refs.fetch_add(1, std::memory_order_relaxed);
  }
  static void release(Buf* b) noexcept {
    if (b != nullptr &&
        b->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete b;
    }
  }

  Buf* buf_ = nullptr;
};

/// Memory accounting of one store (one member's State).
struct StoreStats {
  std::size_t chunks = 0;          ///< chunk slots in the store
  std::size_t shared_chunks = 0;   ///< slots whose payload has other owners
  std::size_t logical_bytes = 0;   ///< what fully-private state would cost
  /// This store's amortized share of its payloads: each chunk contributes
  /// bytes / global-refcount, so summing resident_bytes over every member
  /// of an ensemble reproduces the actual allocation.
  std::size_t resident_bytes = 0;
  std::size_t exclusive_bytes = 0; ///< payloads no other store references

  double shared_fraction() const {
    return chunks != 0
               ? static_cast<double>(shared_chunks) /
                     static_cast<double>(chunks)
               : 0.0;
  }

  StoreStats& operator+=(const StoreStats& o) {
    chunks += o.chunks;
    shared_chunks += o.shared_chunks;
    logical_bytes += o.logical_bytes;
    resident_bytes += o.resident_bytes;
    exclusive_bytes += o.exclusive_bytes;
    return *this;
  }
};

}  // namespace homme
