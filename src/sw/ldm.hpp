#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "sw/config.hpp"

/// \file ldm.hpp
/// The 64 KB local data memory (scratchpad) of one CPE.
///
/// On SW26010 the LDM replaces the data cache and is managed explicitly by
/// the programmer; fitting the working set of a kernel into 64 KB is the
/// central difficulty of the port described in the paper. The simulator
/// enforces the capacity: allocating past 64 KB throws LdmOverflow, so an
/// oversized working set is a test failure rather than a silent fallback.
///
/// Allocation is a stack (arena) discipline, which matches how hand-written
/// Athread kernels lay out their buffers. LdmFrame gives RAII scoping: the
/// allocation mark is restored when the frame goes out of scope.

namespace sw {

class LdmOverflow : public std::runtime_error {
 public:
  explicit LdmOverflow(const std::string& what) : std::runtime_error(what) {}
};

class Ldm {
 public:
  Ldm() : storage_(std::make_unique<Storage>()) {}

  Ldm(const Ldm&) = delete;
  Ldm& operator=(const Ldm&) = delete;

  /// Allocate \p count objects of type T, 32-byte aligned (vector width).
  /// Throws LdmOverflow when the scratchpad capacity would be exceeded.
  template <typename T>
  std::span<T> alloc(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "LDM holds raw data only");
    std::size_t bytes = count * sizeof(T);
    std::size_t aligned_top = (top_ + 31) & ~std::size_t{31};
    if (aligned_top + bytes > kLdmBytes) {
      throw LdmOverflow("LDM overflow: requested " + std::to_string(bytes) +
                        " bytes with " + std::to_string(kLdmBytes - aligned_top) +
                        " free of " + std::to_string(kLdmBytes));
    }
    T* p = reinterpret_cast<T*>(storage_->bytes + aligned_top);
    top_ = aligned_top + bytes;
    if (top_ > peak_) peak_ = top_;
    return {p, count};
  }

  /// Current allocation mark in bytes.
  std::size_t used() const { return top_; }
  /// High-water mark since construction or the last reset_peak().
  std::size_t peak() const { return peak_; }
  std::size_t free_bytes() const { return kLdmBytes - top_; }

  /// Restore the allocation mark (used by LdmFrame).
  void restore(std::size_t mark) { top_ = mark; }
  void reset() { top_ = 0; }
  void reset_peak() { peak_ = top_; }

 private:
  /// Aligned like alloc()'s offsets, so its pointers are 32-byte aligned
  /// whatever the heap returns.
  struct alignas(32) Storage {
    std::byte bytes[kLdmBytes];
  };
  std::unique_ptr<Storage> storage_;
  std::size_t top_ = 0;
  std::size_t peak_ = 0;
};

/// RAII scope for LDM allocations: everything allocated while the frame is
/// alive is released when it is destroyed.
class LdmFrame {
 public:
  explicit LdmFrame(Ldm& ldm) : ldm_(ldm), mark_(ldm.used()) {}
  ~LdmFrame() { ldm_.restore(mark_); }
  LdmFrame(const LdmFrame&) = delete;
  LdmFrame& operator=(const LdmFrame&) = delete;

 private:
  Ldm& ldm_;
  std::size_t mark_;
};

}  // namespace sw
