#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_count{0};
std::atomic<std::size_t> g_bytes{0};
}  // namespace

namespace alloc_counter {

void arm() {
  g_count.store(0);
  g_bytes.store(0);
  g_armed.store(true);
}

std::size_t disarm() {
  g_armed.store(false);
  return g_count.load();
}

std::size_t bytes() { return g_bytes.load(); }

}  // namespace alloc_counter

void* operator new(std::size_t n) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Over-aligned types (a std::vector<homme::vpack>) allocate here.
void* operator new(std::size_t n, std::align_val_t al) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(al);
  void* p = std::aligned_alloc(a, (n + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
