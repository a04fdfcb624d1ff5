#pragma once

#include <algorithm>
#include <coroutine>
#include <cstring>
#include <deque>
#include <functional>
#include <stdexcept>
#include <vector>

#include "obs/trace.hpp"
#include "sw/config.hpp"
#include "sw/counters.hpp"
#include "sw/fault.hpp"
#include "sw/ldm.hpp"
#include "sw/residency.hpp"
#include "sw/task.hpp"
#include "sw/vreg.hpp"

/// \file core_group.hpp
/// One SW26010 core group: an 8x8 mesh of CPEs driven by a deterministic
/// cooperative scheduler. Kernels are coroutines (sw::Task) that use the
/// Cpe interface for DMA, register communication, barriers and flop
/// accounting. See DESIGN.md section 6 for the timing model.

namespace sw {

class CoreGroup;
class Cpe;
class MemoryContention;

/// Thrown when every live task is blocked: a register-communication or
/// barrier deadlock in the kernel under test.
class SchedulerDeadlock : public std::runtime_error {
 public:
  explicit SchedulerDeadlock(const std::string& w) : std::runtime_error(w) {}
};

/// Completion token for an asynchronous DMA transfer.
struct DmaHandle {
  double complete_cycle = 0.0;
};

namespace detail {

/// A register-communication FIFO attached to one CPE for one direction
/// (row or column). Messages carry the simulated cycle at which they were
/// put on the mesh so the receiver can account propagation latency.
struct RegFifo {
  struct Msg {
    v4d payload;
    double sent_cycle;
    int src;
  };
  std::deque<Msg> q;
  std::vector<std::coroutine_handle<>> recv_waiters;
  std::vector<std::coroutine_handle<>> send_waiters;

  bool full() const { return static_cast<int>(q.size()) >= kRegCommFifoDepth; }
  bool empty() const { return q.empty(); }
};

}  // namespace detail

/// The per-CPE execution context handed to every kernel coroutine.
class Cpe {
 public:
  int id() const { return id_; }
  int row() const { return row_; }
  int col() const { return col_; }
  Ldm& ldm() { return ldm_; }
  CpeCounters& counters() { return ctr_; }
  /// Residency ledger: what currently lives in this CPE's LDM. Cleared at
  /// launch start unless the launch preserves LDM contents.
  ResidencyLedger& ledger() { return ledger_; }
  double clock() const { return clock_; }

  /// Account \p n scalar double-precision operations (1 flop/cycle).
  void scalar_flops(std::uint64_t n) {
    ctr_.scalar_flops += n;
    clock_ += static_cast<double>(n) / kCpeScalarFlopsPerCycle;
  }
  /// Account \p n flops issued through the 256-bit vector unit.
  void vector_flops(std::uint64_t n) {
    ctr_.vector_flops += n;
    clock_ += static_cast<double>(n) / kCpeVectorFlopsPerCycle;
  }
  /// Account non-arithmetic work (address generation, branches, ...).
  void cycles(double c) { clock_ += c; }

  // -- DMA ----------------------------------------------------------------
  // Functionally the copy happens at issue time (the cooperative scheduler
  // makes this a consistent semantics); the returned handle carries the
  // modeled completion cycle, including memory-controller contention.

  DmaHandle dma_get(void* ldm_dst, const void* mem_src, std::size_t bytes);
  DmaHandle dma_put(void* mem_dst, const void* ldm_src, std::size_t bytes);
  /// Strided gather: \p count blocks of \p block_bytes, source advancing by
  /// \p src_stride_bytes. One descriptor, as the hardware DMA supports.
  DmaHandle dma_get_strided(void* ldm_dst, const void* mem_src,
                            std::size_t block_bytes, std::size_t count,
                            std::size_t src_stride_bytes);
  DmaHandle dma_put_strided(void* mem_dst, const void* ldm_src,
                            std::size_t block_bytes, std::size_t count,
                            std::size_t dst_stride_bytes);
  /// Block until the transfer behind \p h has completed (advances the
  /// local clock to the completion cycle if it lies in the future).
  void dma_wait(const DmaHandle& h) {
    clock_ = std::max(clock_, h.complete_cycle);
  }

  /// Convenience: synchronous typed get/put.
  template <typename T>
  void get(std::span<T> ldm_dst, const T* mem_src) {
    dma_wait(dma_get(ldm_dst.data(), mem_src, ldm_dst.size() * sizeof(T)));
  }
  template <typename T>
  void put(T* mem_dst, std::span<const T> ldm_src) {
    dma_wait(dma_put(mem_dst, ldm_src.data(), ldm_src.size() * sizeof(T)));
  }

  // -- Register communication ---------------------------------------------
  // send_row/send_col transmit one 256-bit message to a CPE in the same
  // row/column. recv_row/recv_col pop this CPE's FIFO for that direction.
  // All four are awaitable; send suspends when the destination FIFO is
  // full, recv suspends when the FIFO is empty.

  struct SendAwaiter {
    Cpe& self;
    detail::RegFifo& fifo;
    v4d payload;
    bool await_ready() const { return !fifo.full(); }
    void await_suspend(std::coroutine_handle<> h) {
      fifo.send_waiters.push_back(h);
    }
    void await_resume();
  };
  struct RecvAwaiter {
    Cpe& self;
    detail::RegFifo& fifo;
    bool await_ready() const { return !fifo.empty(); }
    void await_suspend(std::coroutine_handle<> h) {
      fifo.recv_waiters.push_back(h);
    }
    v4d await_resume();
  };
  struct BarrierAwaiter {
    Cpe& self;
    bool await_ready() const;
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() {}
  };
  struct YieldAwaiter {
    Cpe& self;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() {}
  };

  SendAwaiter send_row(int dst_col, v4d payload);
  SendAwaiter send_col(int dst_row, v4d payload);
  RecvAwaiter recv_row();
  RecvAwaiter recv_col();
  /// Core-group synchronization (athread barrier).
  BarrierAwaiter barrier() { return BarrierAwaiter{*this}; }
  /// Yield to the scheduler without blocking (fairness point).
  YieldAwaiter yield() { return YieldAwaiter{*this}; }

 private:
  friend class CoreGroup;

  /// Consult the active fault plan for this DMA descriptor. Throws
  /// KernelFault for kDmaFail/kCpeDeath; returns true when the transfer
  /// must complete with corrupted payload.
  bool dma_fault_corrupts(std::size_t bytes);
  /// Flip one seed-chosen 8-byte word inside [dst, dst+bytes).
  void apply_corruption(void* dst, std::size_t bytes);

  void note_ldm_peak() {
    ctr_.ldm_peak_bytes = std::max<std::uint64_t>(ctr_.ldm_peak_bytes,
                                                  ldm_.peak());
  }

  CoreGroup* cg_ = nullptr;
  int id_ = 0;
  int row_ = 0;
  int col_ = 0;
  double clock_ = 0.0;
  Ldm ldm_;
  CpeCounters ctr_;
  ResidencyLedger ledger_;
};

/// The 8x8 CPE cluster plus scheduler and memory controller of one core
/// group. CoreGroup::run() spawns one kernel coroutine per participating
/// CPE, drives them to completion deterministically, and reports modeled
/// time and performance counters.
/// Launch parameters for CoreGroup::run.
struct RunOptions {
  int ncpes = kCpesPerGroup;
  /// Cost of bringing up the parallel region (OpenACC pays this per
  /// region; Athread typically once).
  double spawn_overhead_cycles = 0.0;
  /// Persistent-LDM launch: keep each CPE's LDM contents, allocation mark
  /// and residency ledger from the previous launch, so launch-invariant
  /// data (pinned constants tracked by the ledger) stays resident across
  /// kernel launches. The LDM peak is re-based to the preserved mark so
  /// per-launch peaks remain meaningful.
  bool preserve_ldm = false;
  /// Span name for this launch on the core group's trace track (interned
  /// or static storage).
  const char* trace_name = "launch";
  /// Leave the launch span open when run() returns so the caller (the
  /// kernel pipeline) can emit per-kernel phase events inside it and close
  /// it with CoreGroup::trace_end_launch.
  bool trace_defer = false;
};

class CoreGroup {
 public:
  CoreGroup();

  /// Run \p make_kernel(cpe) on CPEs [0, ncpes). Returns modeled stats.
  /// \p spawn_overhead_cycles models the cost of bringing up the parallel
  /// region (OpenACC pays this per region; Athread typically once).
  KernelStats run(const std::function<Task(Cpe&)>& make_kernel,
                  int ncpes = kCpesPerGroup,
                  double spawn_overhead_cycles = 0.0);
  /// Same, with full launch options (persistent-LDM launches).
  KernelStats run(const std::function<Task(Cpe&)>& make_kernel,
                  const RunOptions& opts);

  Cpe& cpe(int id) { return cpes_[static_cast<std::size_t>(id)]; }

  /// Install the fault-injection schedule consulted on every DMA
  /// descriptor and register-communication send of subsequent launches
  /// (nullptr detaches).
  void set_fault_plan(FaultPlan* plan) { default_faults_ = plan; }
  FaultPlan* fault_plan() const { return default_faults_; }

  /// Attach (or detach with nullptr) the shared memory-controller
  /// contention model. Every DMA descriptor then samples the number of
  /// concurrently active sibling streams and pays the contention cost;
  /// with no siblings active the cost is exactly the uncontended one, so
  /// an attached-but-alone core group stays cycle-identical to a bare
  /// CoreGroup. CgPool attaches this for every pooled group.
  void set_contention(MemoryContention* mc) { contention_ = mc; }
  MemoryContention* contention() const { return contention_; }

  /// Hard-reset every CPE's LDM and residency ledger. A faulted launch
  /// abandons its coroutines mid-flight, so persistent-LDM state (pinned
  /// entries, allocation marks) may dangle into freed host buffers; the
  /// degradation path purges it before the next launch.
  void purge_ldm();

  // -- observability --------------------------------------------------------
  // The core group reports on its own *modeled* timeline: launches appear
  // as spans on track "<prefix>" whose timestamps derive from simulated
  // cycles (the cursor advances by each launch's modeled seconds).

  /// Attach (or detach with nullptr) a tracer. \p pid is the exported
  /// process id of this core group's tracks; \p track_prefix keeps two
  /// core groups of one tracer distinct.
  void set_tracer(obs::Tracer* t, int pid = kDefaultTracePid,
                  std::string track_prefix = "cg");
  obs::Tracer* tracer() const { return tracer_; }
  /// The launch track, or nullptr when no tracer is attached.
  obs::Track* trace_track() const { return cg_track_; }
  /// Where the most recent launch's span opened, microseconds.
  double trace_launch_t0_us() const { return trace_launch_t0_us_; }
  bool trace_span_open() const { return trace_span_open_; }
  /// Close a deferred launch span (RunOptions::trace_defer) at the launch
  /// end time with \p args attached. No-op if no span is open.
  void trace_end_launch(obs::CounterList args);

  static constexpr int kDefaultTracePid = 64;

 private:
  friend class Cpe;

  void ready(std::coroutine_handle<> h) { ready_.push_back(h); }

  detail::RegFifo& row_fifo(int cpe_id) {
    return row_fifos_[static_cast<std::size_t>(cpe_id)];
  }
  detail::RegFifo& col_fifo(int cpe_id) {
    return col_fifos_[static_cast<std::size_t>(cpe_id)];
  }

  // Memory controller: per-transfer cost charges the issuing CPE its
  // latency + its own transfer time, while the *aggregate* bus occupancy
  // accumulates here and bounds the kernel's modeled time from below —
  // bandwidth contention without falsely serializing latency gaps
  // (the cooperative scheduler runs tasks to completion, so a monotonic
  // bus timeline would stack the 64 CPEs end-to-end).
  double mc_busy_total_ = 0.0;
  double bytes_per_cycle_ = kCgMemBandwidth / kCpeClockHz;
  /// Shared memory-controller arbitration across sibling core groups
  /// (nullptr: this group owns its controller's full bandwidth).
  MemoryContention* contention_ = nullptr;

  std::vector<Cpe> cpes_;
  std::vector<detail::RegFifo> row_fifos_;
  std::vector<detail::RegFifo> col_fifos_;

  // Fault injection: plan active for the current launch, plus the
  // register messages it swallowed (a drop that starves a receiver turns
  // the scheduler's deadlock report into a typed KernelFault).
  FaultPlan* default_faults_ = nullptr;
  FaultPlan* active_faults_ = nullptr;
  struct DroppedReg {
    int cpe;
    int op_index;
  };
  std::vector<DroppedReg> dropped_reg_;

  // Barrier state.
  int barrier_waiting_ = 0;
  int barrier_population_ = kCpesPerGroup;
  std::vector<std::pair<Cpe*, std::coroutine_handle<>>> barrier_waiters_;

  std::deque<std::coroutine_handle<>> ready_;

  // Observability state (see set_tracer).
  obs::Tracer* tracer_ = nullptr;
  int trace_pid_ = kDefaultTracePid;
  std::string trace_prefix_ = "cg";
  obs::Track* cg_track_ = nullptr;
  double trace_epoch_us_ = 0.0;  ///< modeled-time cursor: next launch start
  double trace_launch_t0_us_ = 0.0;
  bool trace_span_open_ = false;

  double dma_cost(Cpe& cpe, std::size_t bytes, std::size_t descriptors);
};

}  // namespace sw
