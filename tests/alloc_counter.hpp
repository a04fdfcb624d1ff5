#pragma once

#include <cstddef>

/// \file alloc_counter.hpp
/// Counts global operator new calls, and the bytes they request, in a
/// test binary. The replacement
/// operator new/delete pair lives in alloc_counter.cpp, a translation
/// unit of its own, so no caller inlines either half: the compiler sees
/// operator new matched with operator delete, never malloc with delete.
/// Link alloc_counter.cpp into each test binary that counts.

namespace alloc_counter {

/// Zero the counts and start counting.
void arm();
/// Stop counting; returns the allocations made since arm().
std::size_t disarm();
/// The bytes those allocations requested.
std::size_t bytes();

}  // namespace alloc_counter
