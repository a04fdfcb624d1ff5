#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

/// \file scratch.hpp
/// homme::ScratchArena — a checkpointed bump allocator for kernel
/// temporaries, modeled on the per-team ScratchStack of the TinMan
/// compute_and_apply_rhs exemplar.
///
/// The host dycore used to heap-allocate 4-5 std::vector<double> per
/// element per call in element_rhs and four more per *column* in the
/// vertical remap — malloc/free churn in the innermost loops the paper
/// restructures around explicit on-chip reuse. The arena replaces all of
/// them: one flat buffer per thread, bump-allocated, released wholesale
/// when a Frame closes. Allocation is a pointer increment; the same hot
/// cache lines are reused call after call.
///
/// Discipline (mirrors the exemplar's allocate/free pairing):
///   auto& arena = ScratchArena::thread_local_arena();
///   arena.require(doubles_needed);          // grow only while empty
///   ScratchArena::Frame frame(arena);       // checkpoint
///   std::span<double> tmp = arena.alloc(n); // O(1), uninitialized
///   ...                                      // frame restores on scope exit
///
/// Growing is only legal while no allocation is live (require() outside
/// any active allocation), so spans handed out earlier can never be
/// invalidated. Exceeding capacity inside a frame throws ScratchOverflow
/// instead of quietly reallocating under live references.

namespace homme {

/// A frame asked for more scratch than the arena holds.
class ScratchOverflow : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ScratchArena {
 public:
  ScratchArena() = default;
  explicit ScratchArena(std::size_t capacity_doubles) {
    buf_.resize(capacity_doubles);
  }

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Ensure capacity for \p doubles (and \p ptrs pointer slots). Only
  /// legal while nothing is allocated: growing would move the buffer out
  /// from under live spans.
  void require(std::size_t doubles, std::size_t ptrs = 0) {
    if (used_ != 0 || pused_ != 0) {
      throw ScratchOverflow(
          "ScratchArena::require: cannot grow while " +
          std::to_string(used_) + " doubles / " + std::to_string(pused_) +
          " pointers are live");
    }
    // Nothing is live, so no content has to survive: release the old
    // block before taking the larger one, so a growing arena never holds
    // both at once.
    if (buf_.size() < doubles) {
      std::vector<double>().swap(buf_);
      buf_.resize(doubles);
    }
    if (pbuf_.size() < ptrs) {
      std::vector<double*>().swap(pbuf_);
      pbuf_.resize(ptrs);
    }
  }

  /// Bump-allocate \p n doubles (uninitialized; contents are whatever the
  /// previous frame left — callers must fully write before reading).
  std::span<double> alloc(std::size_t n) {
    if (used_ + n > buf_.size()) {
      throw ScratchOverflow("ScratchArena::alloc: " + std::to_string(n) +
                            " doubles requested, " +
                            std::to_string(buf_.size() - used_) + " of " +
                            std::to_string(buf_.size()) + " free");
    }
    double* p = buf_.data() + used_;
    used_ += n;
    if (used_ > high_) high_ = used_;
    return {p, n};
  }

  /// Same, zero-filled.
  std::span<double> alloc_zero(std::size_t n) {
    auto s = alloc(n);
    std::fill(s.begin(), s.end(), 0.0);
    return s;
  }

  /// Bump-allocate a table of \p n field pointers (for the ptr-span APIs
  /// of the DSS and Laplacian helpers).
  std::span<double*> alloc_ptrs(std::size_t n) {
    if (pused_ + n > pbuf_.size()) {
      throw ScratchOverflow("ScratchArena::alloc_ptrs: " + std::to_string(n) +
                            " slots requested, " +
                            std::to_string(pbuf_.size() - pused_) + " of " +
                            std::to_string(pbuf_.size()) + " free");
    }
    double** p = pbuf_.data() + pused_;
    pused_ += n;
    return {p, n};
  }

  std::size_t used() const { return used_; }
  std::size_t capacity() const { return buf_.size(); }
  std::size_t ptr_capacity() const { return pbuf_.size(); }
  /// Most doubles ever live at once (sizing diagnostic).
  std::size_t high_water() const { return high_; }
  int depth() const { return depth_; }

  /// RAII checkpoint: everything allocated after construction is released
  /// (in one pointer move) when the frame is destroyed.
  class Frame {
   public:
    explicit Frame(ScratchArena& a)
        : a_(a), mark_(a.used_), pmark_(a.pused_) {
      ++a_.depth_;
    }
    ~Frame() {
      a_.used_ = mark_;
      a_.pused_ = pmark_;
      --a_.depth_;
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    ScratchArena& a_;
    std::size_t mark_, pmark_;
  };

  /// The calling thread's arena: the one a Bind on this thread installed,
  /// else the thread's own. Each svc::Engine worker (and the main thread)
  /// gets its own, so kernels stay lock-free and reentrant per thread.
  static ScratchArena& thread_local_arena() {
    thread_local ScratchArena own;
    ScratchArena* b = bound();
    return b != nullptr ? *b : own;
  }

  /// RAII: make \p a the calling thread's arena for this scope. A
  /// thread that lives for one step (an N-rank session's rank threads)
  /// binds an arena that outlives it, so the arena keeps its size from
  /// step to step instead of regrowing from empty on every new thread.
  class Bind {
   public:
    explicit Bind(ScratchArena& a) : prev_(bound()) { bound() = &a; }
    ~Bind() { bound() = prev_; }
    Bind(const Bind&) = delete;
    Bind& operator=(const Bind&) = delete;

   private:
    ScratchArena* prev_;
  };

 private:
  static ScratchArena*& bound() {
    thread_local ScratchArena* b = nullptr;
    return b;
  }

  std::vector<double> buf_;
  std::vector<double*> pbuf_;
  std::size_t used_ = 0, pused_ = 0, high_ = 0;
  int depth_ = 0;
};

}  // namespace homme
