#include "sw/core_group.hpp"

#include "sw/contention.hpp"

#include <cassert>
#include <cstring>
#include <exception>
#include <string>

namespace sw {

namespace {
/// Extra DMA cost per strided block after the first (row activation).
constexpr double kDmaBlockCycles = 8.0;
}  // namespace

// ---------------------------------------------------------------------------
// Cpe: fault hooks
// ---------------------------------------------------------------------------

bool Cpe::dma_fault_corrupts(std::size_t bytes) {
  FaultPlan* fp = cg_->active_faults_;
  if (fp == nullptr) return false;
  const auto f = fp->on_dma_op(id_);
  if (!f) return false;
  fp->note_fired(*f, bytes);
  if (f->kind == FaultKind::kDmaCorrupt) return true;
  throw KernelFault(f->kind, id_, f->op_index, bytes);
}

void Cpe::apply_corruption(void* dst, std::size_t bytes) {
  const std::size_t nwords = bytes / sizeof(std::uint64_t);
  if (nwords == 0) return;
  const auto [idx, mask] = cg_->active_faults_->next_corruption(nwords);
  std::uint64_t word;
  auto* p = static_cast<std::byte*>(dst) + idx * sizeof(std::uint64_t);
  std::memcpy(&word, p, sizeof(word));
  word ^= mask;
  std::memcpy(p, &word, sizeof(word));
}

// ---------------------------------------------------------------------------
// Cpe: DMA
// ---------------------------------------------------------------------------

double CoreGroup::dma_cost(Cpe& cpe, std::size_t bytes,
                           std::size_t descriptors) {
  // The CPE pays a small issue cost plus the transfer's own latency and
  // bus time; aggregate bus occupancy accumulates separately and bounds
  // the kernel time (see mc_busy_total_).
  cpe.clock_ += kDmaIssueCycles;
  double busy = static_cast<double>(bytes) / bytes_per_cycle_;
  if (descriptors > 1) {
    busy += static_cast<double>(descriptors - 1) * kDmaBlockCycles;
  }
  double startup = kDmaStartupCycles;
  if (contention_ != nullptr) {
    // Sample the shared controller: with n active sibling streams this
    // descriptor's bus time inflates by slowdown(n) and its startup pays
    // the queuing term. n <= 1 adds exactly nothing (cycle-identity of a
    // lone pooled group with a bare CoreGroup).
    const int active = contention_->active_streams();
    contention_->note_dma(active, bytes);
    if (active > 1) {
      const double queued = MemoryContention::queue_cycles(active);
      const double inflated = busy * MemoryContention::slowdown(active);
      cpe.ctr_.mc_contended_ops += 1;
      cpe.ctr_.mc_stall_cycles +=
          static_cast<std::uint64_t>(inflated - busy + queued);
      busy = inflated;
      startup += queued;
    }
  }
  mc_busy_total_ += busy;
  return cpe.clock_ + startup + busy;
}

DmaHandle Cpe::dma_get(void* ldm_dst, const void* mem_src,
                       std::size_t bytes) {
  const bool corrupt = dma_fault_corrupts(bytes);
  std::memcpy(ldm_dst, mem_src, bytes);
  if (corrupt) apply_corruption(ldm_dst, bytes);
  ctr_.dma_get_bytes += bytes;
  ctr_.dma_ops += 1;
  note_ldm_peak();
  return DmaHandle{cg_->dma_cost(*this, bytes, 1)};
}

DmaHandle Cpe::dma_put(void* mem_dst, const void* ldm_src,
                       std::size_t bytes) {
  const bool corrupt = dma_fault_corrupts(bytes);
  std::memcpy(mem_dst, ldm_src, bytes);
  if (corrupt) apply_corruption(mem_dst, bytes);
  ctr_.dma_put_bytes += bytes;
  ctr_.dma_ops += 1;
  return DmaHandle{cg_->dma_cost(*this, bytes, 1)};
}

DmaHandle Cpe::dma_get_strided(void* ldm_dst, const void* mem_src,
                               std::size_t block_bytes, std::size_t count,
                               std::size_t src_stride_bytes) {
  const bool corrupt = dma_fault_corrupts(block_bytes * count);
  auto* dst = static_cast<std::byte*>(ldm_dst);
  const auto* src = static_cast<const std::byte*>(mem_src);
  for (std::size_t i = 0; i < count; ++i) {
    std::memcpy(dst + i * block_bytes, src + i * src_stride_bytes,
                block_bytes);
  }
  const std::size_t bytes = block_bytes * count;
  if (corrupt) apply_corruption(ldm_dst, bytes);
  ctr_.dma_get_bytes += bytes;
  ctr_.dma_ops += 1;
  note_ldm_peak();
  return DmaHandle{cg_->dma_cost(*this, bytes, count)};
}

DmaHandle Cpe::dma_put_strided(void* mem_dst, const void* ldm_src,
                               std::size_t block_bytes, std::size_t count,
                               std::size_t dst_stride_bytes) {
  const bool corrupt = dma_fault_corrupts(block_bytes * count);
  auto* dst = static_cast<std::byte*>(mem_dst);
  const auto* src = static_cast<const std::byte*>(ldm_src);
  for (std::size_t i = 0; i < count; ++i) {
    std::memcpy(dst + i * dst_stride_bytes, src + i * block_bytes,
                block_bytes);
  }
  const std::size_t bytes = block_bytes * count;
  // Corrupt within the first scattered block (the strided destination is
  // not contiguous).
  if (corrupt) apply_corruption(dst, block_bytes);
  ctr_.dma_put_bytes += bytes;
  ctr_.dma_ops += 1;
  return DmaHandle{cg_->dma_cost(*this, bytes, count)};
}

// ---------------------------------------------------------------------------
// Cpe: register communication
// ---------------------------------------------------------------------------

Cpe::SendAwaiter Cpe::send_row(int dst_col, v4d payload) {
  assert(dst_col >= 0 && dst_col < kCpeCols);
  const int dst = row_ * kCpeCols + dst_col;
  return SendAwaiter{*this, cg_->row_fifo(dst), payload};
}

Cpe::SendAwaiter Cpe::send_col(int dst_row, v4d payload) {
  assert(dst_row >= 0 && dst_row < kCpeRows);
  const int dst = dst_row * kCpeCols + col_;
  return SendAwaiter{*this, cg_->col_fifo(dst), payload};
}

Cpe::RecvAwaiter Cpe::recv_row() {
  return RecvAwaiter{*this, cg_->row_fifo(id_)};
}

Cpe::RecvAwaiter Cpe::recv_col() {
  return RecvAwaiter{*this, cg_->col_fifo(id_)};
}

void Cpe::SendAwaiter::await_resume() {
  // The FIFO may transiently exceed its depth when a waiting sender and a
  // fresh sender interleave; per-source ordering (what the hardware
  // guarantees) is preserved because each source is sequential.
  self.clock_ += kRegCommSendCycles;
  self.ctr_.reg_sends += 1;
  if (FaultPlan* fp = self.cg_->active_faults_) {
    if (const auto f = fp->on_reg_send(self.id_)) {
      fp->note_fired(*f, kVectorBytes);
      if (f->kind == FaultKind::kCpeDeath) {
        throw KernelFault(FaultKind::kCpeDeath, self.id_, f->op_index,
                          kVectorBytes);
      }
      // Dropped on the mesh: the sender paid its cycles, nothing arrives.
      self.cg_->dropped_reg_.push_back({self.id_, f->op_index});
      return;
    }
  }
  fifo.q.push_back(detail::RegFifo::Msg{payload, self.clock_, self.id_});
  if (!fifo.recv_waiters.empty()) {
    auto h = fifo.recv_waiters.back();
    fifo.recv_waiters.pop_back();
    self.cg_->ready(h);
  }
}

v4d Cpe::RecvAwaiter::await_resume() {
  assert(!fifo.empty());
  const auto msg = fifo.q.front();
  fifo.q.pop_front();
  self.clock_ = std::max(self.clock_ + kRegCommRecvCycles,
                         msg.sent_cycle + kRegCommLatencyCycles);
  self.ctr_.reg_recvs += 1;
  if (!fifo.send_waiters.empty()) {
    auto h = fifo.send_waiters.back();
    fifo.send_waiters.pop_back();
    self.cg_->ready(h);
  }
  return msg.payload;
}

// ---------------------------------------------------------------------------
// Cpe: barrier and yield
// ---------------------------------------------------------------------------

bool Cpe::BarrierAwaiter::await_ready() const { return false; }

void Cpe::BarrierAwaiter::await_suspend(std::coroutine_handle<> h) {
  CoreGroup& cg = *self.cg_;
  cg.barrier_waiters_.emplace_back(&self, h);
  cg.barrier_waiting_ += 1;
  if (cg.barrier_waiting_ == cg.barrier_population_) {
    double max_clock = 0.0;
    for (const auto& [cpe, handle] : cg.barrier_waiters_) {
      max_clock = std::max(max_clock, cpe->clock_);
    }
    for (auto& [cpe, handle] : cg.barrier_waiters_) {
      cpe->clock_ = max_clock + kBarrierCycles;
      cg.ready(handle);
    }
    cg.barrier_waiters_.clear();
    cg.barrier_waiting_ = 0;
  }
}

void Cpe::YieldAwaiter::await_suspend(std::coroutine_handle<> h) {
  self.cg_->ready(h);
}

// ---------------------------------------------------------------------------
// CoreGroup
// ---------------------------------------------------------------------------

void CoreGroup::purge_ldm() {
  for (Cpe& c : cpes_) {
    c.ldm_.reset();
    c.ldm_.reset_peak();
    c.ledger_.clear();
  }
}

void CoreGroup::set_tracer(obs::Tracer* t, int pid,
                           std::string track_prefix) {
  tracer_ = t;
  trace_pid_ = pid;
  trace_prefix_ = std::move(track_prefix);
  cg_track_ = nullptr;
  trace_epoch_us_ = 0.0;
  trace_launch_t0_us_ = 0.0;
  trace_span_open_ = false;
}

void CoreGroup::trace_end_launch(obs::CounterList args) {
  if (!trace_span_open_) return;
  cg_track_->end_at(trace_epoch_us_, args);
  trace_span_open_ = false;
}

CoreGroup::CoreGroup()
    : cpes_(kCpesPerGroup),
      row_fifos_(kCpesPerGroup),
      col_fifos_(kCpesPerGroup) {
  for (int id = 0; id < kCpesPerGroup; ++id) {
    Cpe& c = cpes_[static_cast<std::size_t>(id)];
    c.cg_ = this;
    c.id_ = id;
    c.row_ = id / kCpeCols;
    c.col_ = id % kCpeCols;
  }
}

KernelStats CoreGroup::run(const std::function<Task(Cpe&)>& make_kernel,
                           int ncpes, double spawn_overhead_cycles) {
  RunOptions opts;
  opts.ncpes = ncpes;
  opts.spawn_overhead_cycles = spawn_overhead_cycles;
  return run(make_kernel, opts);
}

KernelStats CoreGroup::run(const std::function<Task(Cpe&)>& make_kernel,
                           const RunOptions& opts) {
  const int ncpes = opts.ncpes;
  const double spawn_overhead_cycles = opts.spawn_overhead_cycles;
  assert(ncpes >= 1 && ncpes <= kCpesPerGroup);

  // Reset chip state for a fresh kernel launch.
  active_faults_ = default_faults_;
  dropped_reg_.clear();
  mc_busy_total_ = 0.0;
  barrier_waiting_ = 0;
  barrier_population_ = ncpes;
  barrier_waiters_.clear();
  ready_.clear();
  for (auto& f : row_fifos_) {
    f.q.clear();
    f.recv_waiters.clear();
    f.send_waiters.clear();
  }
  for (auto& f : col_fifos_) {
    f.q.clear();
    f.recv_waiters.clear();
    f.send_waiters.clear();
  }
  for (int id = 0; id < ncpes; ++id) {
    Cpe& c = cpes_[static_cast<std::size_t>(id)];
    c.clock_ = 0.0;
    c.ctr_ = CpeCounters{};
    if (opts.preserve_ldm) {
      // Persistent-LDM launch: pinned data and its ledger survive; the
      // peak restarts from the preserved allocation mark.
      c.ldm_.reset_peak();
    } else {
      c.ldm_.reset();
      c.ldm_.reset_peak();
      c.ledger_.clear();
    }
  }

  // Open the launch span on the modeled timeline. A scope guard keeps the
  // trace well-formed on the fault paths below (typed KernelFault,
  // SchedulerDeadlock): the span is closed at the launch start time.
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  if (tracing) {
    if (cg_track_ == nullptr) {
      cg_track_ = &tracer_->track(trace_prefix_, trace_pid_, 0);
    }
    trace_launch_t0_us_ = trace_epoch_us_;
    cg_track_->begin_at(opts.trace_name, trace_epoch_us_);
    trace_span_open_ = true;
  }
  struct TraceGuard {
    CoreGroup* cg;
    bool active;
    ~TraceGuard() {
      if (active && std::uncaught_exceptions() > 0 && cg->trace_span_open_) {
        cg->cg_track_->end_at(cg->trace_epoch_us_);
        cg->trace_span_open_ = false;
      }
    }
  } trace_guard{this, tracing};

  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(ncpes));
  for (int id = 0; id < ncpes; ++id) {
    tasks.push_back(make_kernel(cpes_[static_cast<std::size_t>(id)]));
    ready_.push_back(tasks.back().handle());
  }

  while (!ready_.empty()) {
    auto h = ready_.front();
    ready_.pop_front();
    if (!h.done()) h.resume();
  }

  const auto trace_abort = [&](const char* what) {
    if (tracing) cg_track_->instant_at(what, trace_epoch_us_);
  };

  try {
    for (const Task& t : tasks) t.rethrow_if_failed();
  } catch (...) {
    trace_abort("cg:fault");
    throw;
  }

  int blocked = 0;
  for (const Task& t : tasks) {
    if (!t.done()) ++blocked;
  }
  if (blocked > 0) {
    // A receiver starved by an injected message drop is an injected
    // fault, not a kernel bug: surface it as the typed KernelFault.
    if (!dropped_reg_.empty()) {
      trace_abort("cg:fault");
      throw KernelFault(FaultKind::kRegDrop, dropped_reg_.front().cpe,
                        dropped_reg_.front().op_index, kVectorBytes);
    }
    trace_abort("cg:deadlock");
    throw SchedulerDeadlock(
        "core-group deadlock: " + std::to_string(blocked) + " of " +
        std::to_string(ncpes) +
        " CPE tasks blocked on register communication or a barrier");
  }
  for (const auto& f : row_fifos_) {
    if (!f.empty()) {
      if (!dropped_reg_.empty()) {
        trace_abort("cg:fault");
        throw KernelFault(FaultKind::kRegDrop, dropped_reg_.front().cpe,
                          dropped_reg_.front().op_index, kVectorBytes);
      }
      throw std::logic_error("unconsumed row register message at kernel end");
    }
  }
  for (const auto& f : col_fifos_) {
    if (!f.empty()) {
      if (!dropped_reg_.empty()) {
        trace_abort("cg:fault");
        throw KernelFault(FaultKind::kRegDrop, dropped_reg_.front().cpe,
                          dropped_reg_.front().op_index, kVectorBytes);
      }
      throw std::logic_error("unconsumed col register message at kernel end");
    }
  }

  KernelStats stats;
  for (int id = 0; id < ncpes; ++id) {
    Cpe& c = cpes_[static_cast<std::size_t>(id)];
    c.note_ldm_peak();
    stats.cycles = std::max(stats.cycles, c.clock_);
    stats.totals += c.ctr_;
  }
  // Bandwidth bound: the kernel cannot finish before the memory
  // controller has streamed all requested bytes.
  stats.cycles = std::max(stats.cycles, mc_busy_total_);
  stats.cycles += spawn_overhead_cycles;
  stats.seconds = stats.cycles / kCpeClockHz;

  if (tracing) {
    // Advance the modeled-time cursor past this launch, then close the
    // span with the launch's counters — unless the caller deferred the
    // close to emit per-kernel phase events first (KernelPipeline).
    trace_epoch_us_ = trace_launch_t0_us_ + stats.seconds * 1e6;
    if (!opts.trace_defer) {
      const CounterAttachment attach = counter_attachment(stats.totals);
      cg_track_->end_at(trace_epoch_us_, attach);
      trace_span_open_ = false;
    }
  }
  return stats;
}

}  // namespace sw
