#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

/// \file residency.hpp
/// The per-CPE residency ledger behind cross-kernel LDM reuse.
///
/// The paper's Athread redesign (section 7.3) keeps shared element arrays
/// resident in the 64 KB LDM across consecutive loops so later loops skip
/// the DMA gets the OpenACC port repeats. The ledger is the bookkeeping
/// that makes this schedulable from a *declared* kernel footprint instead
/// of hand-placed gets: each entry records which byte interval of a
/// main-memory field currently lives in an LDM buffer, whether it has been
/// modified, where a writeback puts it, and whether it survives the
/// current element scope. The kernel-pipeline layer consults it on every
/// lease to decide which bytes must move (cold) and which are already home
/// (reused).
///
/// This is pure bookkeeping — the ledger never issues DMA itself, so it
/// stays independent of Cpe and is unit-testable in isolation.

namespace sw {

/// One main-memory range with LDM backing. The covered interval
/// [lo, hi) is tracked as a single hull: lease patterns in the ported
/// kernels are prefix-nested (whole-field or leading-subrange), so a
/// disjoint lease simply widens the hull (the gap is transferred too,
/// which is correct, merely conservative).
struct ResidentEntry {
  std::uint16_t tag = 0;        ///< field identifier (accel::FieldId)
  std::int32_t sub = -1;        ///< sub-field index (tracer, ...); -1: none
  const void* mem = nullptr;    ///< main-memory base of the full extent
  /// Where a writeback puts the covered bytes: mem itself, or the block a
  /// kernel writes in place of the one it read.
  void* wb = nullptr;
  std::span<std::byte> ldm;     ///< LDM backing for the full extent
  std::size_t extent_bytes = 0;
  std::size_t lo = 0, hi = 0;   ///< covered byte interval [lo, hi)
  bool dirty = false;           ///< LDM copy modified; needs writeback
  /// Survives element scopes and (with preserve_ldm launches) whole
  /// kernel launches — used for launch-invariant constants such as the
  /// GLL derivative matrix.
  bool persistent = false;

  bool loaded() const { return hi > lo || (lo == 0 && hi == extent_bytes); }
  std::size_t covered_bytes() const { return hi - lo; }
};

/// What a lease of [lo, hi) must transfer given an entry's current hull:
/// up to two miss segments to DMA plus the bytes already covered.
struct CoverPlan {
  struct Seg {
    std::size_t lo = 0, hi = 0;
    std::size_t bytes() const { return hi - lo; }
  };
  Seg miss[2];
  int nmiss = 0;
  std::size_t reused_bytes = 0;  ///< requested bytes already covered

  std::size_t cold_bytes() const {
    std::size_t b = 0;
    for (int i = 0; i < nmiss; ++i) b += miss[i].bytes();
    return b;
  }
};

/// Extend \p e's hull to cover [lo, hi) and report what must move.
/// When \p load_misses is false (a full overwrite is coming), the hull is
/// extended without scheduling transfers — only legal when the request
/// subsumes the current hull, which the caller must guarantee.
inline CoverPlan plan_cover(ResidentEntry& e, std::size_t lo, std::size_t hi,
                            bool load_misses = true) {
  CoverPlan plan;
  if (e.hi == e.lo) {  // nothing resident yet
    if (load_misses) plan.miss[plan.nmiss++] = {lo, hi};
    e.lo = lo;
    e.hi = hi;
    return plan;
  }
  const std::size_t ov_lo = std::max(lo, e.lo);
  const std::size_t ov_hi = std::min(hi, e.hi);
  if (ov_hi > ov_lo) plan.reused_bytes = ov_hi - ov_lo;
  if (load_misses) {
    if (lo < e.lo) plan.miss[plan.nmiss++] = {lo, e.lo};
    // Widening on the right swallows any gap between the hulls so a
    // single interval keeps describing the residency.
    if (hi > e.hi) plan.miss[plan.nmiss++] = {e.hi, hi};
  }
  e.lo = std::min(e.lo, lo);
  e.hi = std::max(e.hi, hi);
  return plan;
}

/// The per-CPE table of resident ranges. Entries are few (one per keep
/// field plus pinned constants), so linear scans are fine.
class ResidencyLedger {
 public:
  ResidentEntry* find(std::uint16_t tag, std::int32_t sub,
                      const void* mem) {
    for (auto& e : entries_) {
      if (e.tag == tag && e.sub == sub && e.mem == mem) return &e;
    }
    return nullptr;
  }

  ResidentEntry& add(ResidentEntry e) {
    entries_.push_back(std::move(e));
    return entries_.back();
  }

  template <typename F>
  void for_each_dirty(F&& f) {
    for (auto& e : entries_) {
      if (e.dirty) f(e);
    }
  }

  /// Drop everything (fresh kernel launch without preserve_ldm).
  void clear() { entries_.clear(); }

  /// Drop element-scoped entries, keeping pinned constants (end of one
  /// element's residency scope).
  void clear_scoped() {
    std::erase_if(entries_, [](const ResidentEntry& e) {
      return !e.persistent;
    });
  }

  std::size_t size() const { return entries_.size(); }
  std::size_t resident_bytes() const {
    std::size_t b = 0;
    for (const auto& e : entries_) b += e.covered_bytes();
    return b;
  }

 private:
  std::vector<ResidentEntry> entries_;
};

}  // namespace sw
