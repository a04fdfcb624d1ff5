#pragma once

#include <span>

#include "homme/state.hpp"

/// \file local_state.hpp
/// Rank-local views of a global dycore state, keyed by an owned-element
/// list (a Dycore's elements(): Partition::rank_elems order for a rank,
/// mesh order for the whole mesh).
///
/// model::Session's per-rank states need the same two primitives: extract
/// the elements a rank owns and write them back. They live here as free
/// functions so the element-order convention exists in exactly one place.

namespace homme {

/// Extract the elements listed in \p elems (local order = list order).
State gather_local(std::span<const int> elems, const State& global);

/// Inverse of gather_local: write \p local back into \p global.
void scatter_local(std::span<const int> elems, const State& local,
                   State& global);

}  // namespace homme
