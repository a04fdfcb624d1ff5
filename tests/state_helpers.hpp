#pragma once

#include <cstring>

#include "homme/state.hpp"

/// \file state_helpers.hpp
/// State copies and comparisons the tests share: a copy that owns every
/// byte it holds, and equality bit for bit over every chunk.

namespace state_helpers {

/// A copy of \p s that shares no chunk with it.
inline homme::State deep_copy(const homme::State& s) {
  homme::State out(s.size());
  for (std::size_t id = 0; id < s.size() * homme::kChunksPerElement; ++id) {
    const homme::Chunk& c = homme::state_chunk(s, id);
    homme::state_chunk(out, id).assign(c.data(), c.size());
  }
  return out;
}

/// Every chunk of \p a equals the same chunk of \p b, bit for bit.
inline bool states_bitwise_equal(const homme::State& a,
                                 const homme::State& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t id = 0; id < a.size() * homme::kChunksPerElement; ++id) {
    const homme::Chunk& x = homme::state_chunk(a, id);
    const homme::Chunk& y = homme::state_chunk(b, id);
    // An empty chunk (no tracers) may have a null data(): memcmp must not
    // see it even for zero bytes.
    if (x.size() != y.size() ||
        (!x.empty() &&
         std::memcmp(x.data(), y.data(), x.size_bytes()) != 0)) {
      return false;
    }
  }
  return true;
}

}  // namespace state_helpers
