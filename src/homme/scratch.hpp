#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
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
///   ScratchArena::Frame frame(arena);       // checkpoint
///   std::span<double> tmp = arena.alloc(n); // O(1), uninitialized
///   ...                                      // frame restores on scope exit
///
/// The arena sizes itself: no caller computes what it or its callees
/// need. An allocation that does not fit takes the next block, a new one
/// if none is left, so spans handed out never move. When the outermost
/// frame closes with more than one block, the arena frees them all and
/// takes one block of its high-water mark. A thread therefore grows only
/// in its first steps, and from then on runs in one block with one
/// pointer bump per allocation. Pointer tables follow the same rule in a
/// chain of their own.

namespace homme {

class ScratchArena {
  /// Where a chain stood: its current block, the offset in it, and the
  /// slots live.
  struct Mark {
    std::size_t block, offset, live;
  };

 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Bump-allocate \p n doubles (uninitialized; contents are whatever the
  /// previous frame left — callers must fully write before reading).
  std::span<double> alloc(std::size_t n) { return {doubles_.alloc(n), n}; }

  /// Same, zero-filled.
  std::span<double> alloc_zero(std::size_t n) {
    auto s = alloc(n);
    std::fill(s.begin(), s.end(), 0.0);
    return s;
  }

  /// Bump-allocate a table of \p n field pointers (for the ptr-span APIs
  /// of the DSS and Laplacian helpers).
  std::span<double*> alloc_ptrs(std::size_t n) {
    return {ptrs_.alloc(n), n};
  }

  /// Doubles live now.
  std::size_t used() const { return doubles_.live(); }
  /// Doubles held, over every block.
  std::size_t capacity() const { return doubles_.capacity(); }
  /// Most doubles ever live at once: the size of the one block a folded
  /// arena holds.
  std::size_t high_water() const { return doubles_.high_water(); }
  int depth() const { return depth_; }

  /// RAII checkpoint: everything allocated after construction is released
  /// (in one pointer move) when the frame is destroyed.
  class Frame {
   public:
    explicit Frame(ScratchArena& a)
        : a_(a), mark_(a.doubles_.mark()), pmark_(a.ptrs_.mark()) {
      ++a_.depth_;
    }
    ~Frame() {
      a_.doubles_.release(mark_);
      a_.ptrs_.release(pmark_);
      if (--a_.depth_ == 0) {
        a_.doubles_.fold();
        a_.ptrs_.fold();
      }
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    ScratchArena& a_;
    Mark mark_, pmark_;
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
  /// One kind of slot (doubles or pointers): blocks filled in order, with
  /// a bump offset into the current one.
  template <class T>
  class Chain {
   public:
    T* alloc(std::size_t n) {
      if (off_ + n > size_) next(n);
      T* p = base_ + off_;
      off_ += n;
      live_ += n;
      high_ = std::max(high_, live_);
      return p;
    }

    Mark mark() const { return {cur_, off_, live_}; }
    void release(const Mark& m) {
      if (!blocks_.empty()) enter(m.block);
      off_ = m.offset;
      live_ = m.live;
    }

    /// With nothing live and more than one block, trade the chain for
    /// one block of the high-water mark.
    void fold() {
      if (live_ != 0 || blocks_.size() < 2) return;
      blocks_.clear();
      capacity_ = 0;
      take(high_);
      enter(0);
    }

    std::size_t live() const { return live_; }
    std::size_t capacity() const { return capacity_; }
    std::size_t high_water() const { return high_; }

   private:
    struct Block {
      std::unique_ptr<T[]> data;
      std::size_t size;
    };

    /// Move to the first later block that holds \p n; if none does, take
    /// one at least as large as all before it, so a chain stays short.
    void next(std::size_t n) {
      std::size_t b = blocks_.empty() ? 0 : cur_ + 1;
      while (b < blocks_.size() && blocks_[b].size < n) ++b;
      if (b == blocks_.size()) take(std::max(n, capacity_));
      enter(b);
      off_ = 0;
    }
    void take(std::size_t n) {
      blocks_.push_back({std::make_unique_for_overwrite<T[]>(n), n});
      capacity_ += n;
    }
    void enter(std::size_t b) {
      cur_ = b;
      base_ = blocks_[b].data.get();
      size_ = blocks_[b].size;
    }

    std::vector<Block> blocks_;
    T* base_ = nullptr;  ///< the current block, size_ slots
    std::size_t cur_ = 0, size_ = 0, off_ = 0;
    std::size_t live_ = 0, high_ = 0, capacity_ = 0;
  };

  static ScratchArena*& bound() {
    thread_local ScratchArena* b = nullptr;
    return b;
  }

  Chain<double> doubles_;
  Chain<double*> ptrs_;
  int depth_ = 0;
};

}  // namespace homme
