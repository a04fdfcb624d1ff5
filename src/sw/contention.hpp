#pragma once

#include <atomic>
#include <cstdint>

#include "sw/config.hpp"

/// \file contention.hpp
/// sw::MemoryContention — the shared memory controller of one SW26010
/// processor, arbitrating the concurrent DMA streams of its core groups.
///
/// Each core group that is about to issue DMA traffic opens a *stream*
/// (CgPool does this around every launch); every DMA descriptor then
/// samples the number of concurrently active streams n and pays
///   busy  *= slowdown(n)            (per-CG achieved bandwidth drop)
///   startup += queue_cycles(n)      (descriptor queuing at the controller)
/// With n <= 1 both terms are exactly zero, so a lone core group is
/// cycle-identical to a CoreGroup with no contention model attached.
///
/// Determinism: CgPool's sharded launches open every participating
/// stream before the first shard runs, so each DMA samples the same n on
/// every run regardless of host scheduling. When independent members
/// contend dynamically (svc::Engine placement), the sampled n reflects
/// real concurrency — modeled times then vary with load, but functional
/// results never depend on n.

namespace sw {

class MemoryContention {
 public:
  /// Per-stream slowdown factor with \p active concurrent streams:
  /// 1 + kMcContentionPerStream * (active - 1), floored at 1.
  static double slowdown(int active) {
    return active > 1 ? 1.0 + kMcContentionPerStream * (active - 1) : 1.0;
  }
  /// Extra DMA startup cycles with \p active concurrent streams.
  static double queue_cycles(int active) {
    return active > 1 ? kMcQueueCyclesPerStream * (active - 1) : 0.0;
  }
  /// Per-CG achieved bandwidth (bytes/s) with \p active streams.
  static double per_stream_bandwidth(int active) {
    return kCgMemBandwidth / slowdown(active);
  }

  // -- stream lifecycle (thread safe) ---------------------------------------

  void open_stream() {
    const int n = active_.fetch_add(1, std::memory_order_relaxed) + 1;
    int hw = high_water_.load(std::memory_order_relaxed);
    while (n > hw &&
           !high_water_.compare_exchange_weak(hw, n,
                                              std::memory_order_relaxed)) {
    }
  }
  void close_stream() { active_.fetch_sub(1, std::memory_order_relaxed); }

  int active_streams() const {
    return active_.load(std::memory_order_relaxed);
  }
  /// Most streams ever concurrently active (placement telemetry).
  int high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }

  // -- per-descriptor accounting (called from CoreGroup::dma_cost) ----------

  /// Record one DMA descriptor of \p bytes issued under \p active streams.
  void note_dma(int active, std::uint64_t bytes) {
    if (active > 1) {
      contended_ops_.fetch_add(1, std::memory_order_relaxed);
      contended_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    } else {
      solo_ops_.fetch_add(1, std::memory_order_relaxed);
      solo_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    }
  }

  struct Stats {
    std::uint64_t contended_ops = 0;    ///< descriptors issued with n > 1
    std::uint64_t contended_bytes = 0;  ///< bytes those descriptors moved
    std::uint64_t solo_ops = 0;         ///< descriptors issued uncontended
    std::uint64_t solo_bytes = 0;
    int stream_high_water = 0;          ///< max concurrently active streams
  };
  Stats stats() const {
    Stats s;
    s.contended_ops = contended_ops_.load(std::memory_order_relaxed);
    s.contended_bytes = contended_bytes_.load(std::memory_order_relaxed);
    s.solo_ops = solo_ops_.load(std::memory_order_relaxed);
    s.solo_bytes = solo_bytes_.load(std::memory_order_relaxed);
    s.stream_high_water = high_water();
    return s;
  }

  /// RAII stream handle (open on construction, close on destruction).
  class StreamGuard {
   public:
    explicit StreamGuard(MemoryContention& mc) : mc_(&mc) {
      mc_->open_stream();
    }
    StreamGuard(StreamGuard&& o) noexcept : mc_(o.mc_) { o.mc_ = nullptr; }
    StreamGuard(const StreamGuard&) = delete;
    StreamGuard& operator=(const StreamGuard&) = delete;
    StreamGuard& operator=(StreamGuard&&) = delete;
    ~StreamGuard() {
      if (mc_ != nullptr) mc_->close_stream();
    }

   private:
    MemoryContention* mc_;
  };

 private:
  std::atomic<int> active_{0};
  std::atomic<int> high_water_{0};
  std::atomic<std::uint64_t> contended_ops_{0};
  std::atomic<std::uint64_t> contended_bytes_{0};
  std::atomic<std::uint64_t> solo_ops_{0};
  std::atomic<std::uint64_t> solo_bytes_{0};
};

}  // namespace sw
