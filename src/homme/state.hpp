#pragma once

#include <span>
#include <utility>
#include <vector>

#include "homme/dims.hpp"
#include "homme/field_store.hpp"

/// \file state.hpp
/// Prognostic state of the spectral-element dynamical core.
///
/// Per element, per layer, per GLL point:
///   u1, u2 : wind in contravariant components of the element's frame
///   T      : temperature
///   dp     : pressure thickness of the (floating Lagrangian) layer
///   qdp    : tracer mass (q * dp) for each tracer
/// plus the time-invariant surface geopotential phis.
///
/// Layout is [lev][gidx]: each level is a contiguous 16-double tile, so
/// horizontal operators stream contiguous memory and the vertical scans
/// of section 7.4 see a fixed stride of kNpp — the exact layout tension
/// the paper's LDM redesign resolves.
///
/// Fields are copy-on-write Chunks (field_store.hpp): const reads alias
/// freely across forked ensemble members, and writes go through
/// mutable_span() / q_mut(), which un-share the touched chunk only.

namespace homme {

struct ElementState {
  Chunk u1, u2, T, dp;
  Chunk qdp;   ///< [q][lev][gidx]
  Chunk phis;  ///< [gidx]

  ElementState() = default;
  explicit ElementState(const Dims& d)
      : u1(d.field_size()),
        u2(d.field_size()),
        T(d.field_size()),
        dp(d.field_size()),
        qdp(static_cast<std::size_t>(d.qsize) * d.field_size()),
        phis(mesh::kNpp) {}

  /// Read view of one tracer's qdp slab.
  std::span<const double> q(int tracer, const Dims& d) const {
    return q_view(qdp.span(), tracer, d);
  }
  /// Write view of one tracer's qdp slab; un-shares the whole qdp chunk
  /// (all tracers of an element dirty together).
  std::span<double> q_mut(int tracer, const Dims& d) {
    return q_view(qdp.mutable_span(), tracer, d);
  }

 private:
  /// One slicing implementation for both constnesses — the const and
  /// non-const q() used to duplicate the pointer arithmetic.
  template <typename SpanT>
  static SpanT q_view(SpanT whole, int tracer, const Dims& d) {
    return whole.subspan(static_cast<std::size_t>(tracer) * d.field_size(),
                         d.field_size());
  }
};

/// Whole-domain state: one ElementState per element, element ids matching
/// the mesh (or a rank's local list in distributed runs). Copying a
/// FieldStore aliases every chunk (COW), which is exactly what fork()
/// spells out; stats() reports the sharing structure.
class FieldStore : public std::vector<ElementState> {
 public:
  using Base = std::vector<ElementState>;
  using Base::Base;
  FieldStore() = default;

  /// COW clone: the result aliases every chunk of this store; members
  /// diverge chunk-by-chunk as writes land.
  FieldStore fork() const { return *this; }

  /// Memory accounting: chunk counts, shared fraction, logical vs
  /// resident (amortized) bytes. Advisory under concurrency.
  StoreStats stats() const;
};

using State = FieldStore;

/// Flat field index for layer \p lev, GLL point \p g.
inline std::size_t fidx(int lev, int g) {
  return static_cast<std::size_t>(lev) * mesh::kNpp +
         static_cast<std::size_t>(g);
}

/// Chunk-table view of a State, used by delta checkpoints: chunk id =
/// elem * kChunksPerElement + field, fields in SWCK serialization order
/// (u1, u2, T, dp, qdp, phis).
inline constexpr std::size_t kChunksPerElement = 6;

inline const Chunk& state_chunk(const State& s, std::size_t id) {
  const ElementState& es = s[id / kChunksPerElement];
  switch (id % kChunksPerElement) {
    case 0: return es.u1;
    case 1: return es.u2;
    case 2: return es.T;
    case 3: return es.dp;
    case 4: return es.qdp;
    default: return es.phis;
  }
}
inline Chunk& state_chunk(State& s, std::size_t id) {
  return const_cast<Chunk&>(state_chunk(std::as_const(s), id));
}

}  // namespace homme
