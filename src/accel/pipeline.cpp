#include "accel/pipeline.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "sw/config.hpp"

namespace accel {

namespace {

/// LDM the admission plan always leaves untouched: per-lease alignment
/// slop plus headroom for kernel-local scalars.
constexpr std::size_t kReserveBytes = 1024;
/// Reservation for the pinned GLL derivative matrix (16 doubles, aligned).
constexpr std::size_t kDvvReserveBytes = 160;

std::size_t keep_bytes_of(const Workset& ws, const KeepSet& keep) {
  std::size_t bytes = 0;
  for (FieldId id : keep.ids) {
    // Each keep buffer is a separate 32-byte-aligned allocation.
    bytes += (ws.at(id).extent * sizeof(double) + 31u) & ~std::size_t{31};
  }
  return bytes;
}

/// The keep set of one fused segment: fields any of its kernels binds
/// keep-worthy (in first-declaration order), greedily admitted while the
/// keep buffers plus the worst kernel's transient demand still fit in LDM.
struct KeepPlan {
  KeepSet keep;
  std::size_t keep_bytes = 0;
};

KeepPlan plan_keeps(const Workset& ws,
                    const std::vector<const Kernel*>& segment) {
  std::vector<FieldId> candidates;
  for (const Kernel* k : segment) {
    Workset own;
    k->bind(own);
    for (const FieldBinding& b : own.bindings()) {
      // Sub-indexed fields (tracers) stream level-chunked per sub; only
      // single-block fields are residency candidates.
      if (!b.keep || b.subcount != 1) continue;
      if (std::find(candidates.begin(), candidates.end(), b.id) ==
          candidates.end()) {
        candidates.push_back(b.id);
      }
    }
  }
  KeepPlan plan;
  for (FieldId id : candidates) {
    KeepSet trial = plan.keep;
    trial.ids.push_back(id);
    const std::size_t kb = keep_bytes_of(ws, trial);
    std::size_t transient = 0;
    for (const Kernel* k : segment) {
      transient = std::max(transient, k->transient_bytes(ws, trial));
    }
    if (kb + transient + kReserveBytes + kDvvReserveBytes <= sw::kLdmBytes) {
      plan.keep = std::move(trial);
      plan.keep_bytes = kb;
    }
  }
  return plan;
}

/// One element's residency scope inside a fused launch: allocates the keep
/// buffers, registers them with the ledger, and — via flush() — writes the
/// dirty hulls back before the underlying LdmFrame releases the space.
class ElemScope {
 public:
  ElemScope(sw::Cpe& cpe, const Workset& ws, const KeepPlan& plan, int item)
      : cpe_(cpe), frame_(cpe.ldm()) {
    for (FieldId id : plan.keep.ids) {
      const FieldBinding& b = ws.at(id);
      std::span<double> buf = cpe.ldm().alloc<double>(b.extent);
      sw::ResidentEntry ent;
      ent.tag = static_cast<std::uint16_t>(id);
      ent.sub = 0;
      ent.mem = ws.read_addr(id, item, 0);
      ent.wb = ws.write_addr(id, item, 0);
      ent.ldm = std::as_writable_bytes(buf);
      ent.extent_bytes = buf.size_bytes();
      cpe.ledger().add(ent);
    }
  }

  ElemScope(const ElemScope&) = delete;
  ElemScope& operator=(const ElemScope&) = delete;

  /// Write dirty keep hulls back to main memory and retire the scoped
  /// ledger entries. The pipeline accounts this as the "writeback" phase.
  void flush() {
    cpe_.ledger().for_each_dirty([this](sw::ResidentEntry& e) {
      if (e.persistent || e.hi == e.lo) return;
      auto* dst = static_cast<std::byte*>(e.wb);
      cpe_.dma_wait(cpe_.dma_put(dst + e.lo, e.ldm.data() + e.lo,
                                 e.hi - e.lo));
      cpe_.counters().dma_cold_bytes += e.hi - e.lo;
      e.dirty = false;
    });
    cpe_.ledger().clear_scoped();
    flushed_ = true;
  }

  ~ElemScope() {
    if (!flushed_) cpe_.ledger().clear_scoped();
  }

 private:
  sw::Cpe& cpe_;
  sw::LdmFrame frame_;
  bool flushed_ = false;
};

void merge_stats(sw::KernelStats& total, const sw::KernelStats& s,
                 std::string_view fallback_phase) {
  total.cycles += s.cycles;
  total.totals += s.totals;
  if (!s.phases.empty()) {
    total.phases.insert(total.phases.end(), s.phases.begin(), s.phases.end());
  } else {
    total.phases.push_back(sw::PhaseStats{std::string(fallback_phase),
                                          s.cycles, s.seconds, s.totals});
  }
}

}  // namespace

void stage_dvv(sw::Cpe& cpe, const Workset& ws) {
  if (ws.dvv == nullptr) return;
  sw::ResidentEntry* e = cpe.ledger().find(kDvvTag, -1, ws.dvv);
  if (e == nullptr) {
    std::span<double> buf = cpe.ldm().alloc<double>(kNpp);
    sw::ResidentEntry ent;
    ent.tag = kDvvTag;
    ent.sub = -1;
    ent.mem = ws.dvv;
    ent.ldm = std::as_writable_bytes(buf);
    ent.extent_bytes = buf.size_bytes();
    ent.persistent = true;
    e = &cpe.ledger().add(ent);
    cpe.dma_wait(cpe.dma_get(e->ldm.data(), ws.dvv, e->extent_bytes));
    e->lo = 0;
    e->hi = e->extent_bytes;
    cpe.counters().dma_cold_bytes += e->extent_bytes;
  } else {
    cpe.counters().dma_reused_bytes += e->extent_bytes;
  }
}

// ---------------------------------------------------------------------------
// StateBlocks
// ---------------------------------------------------------------------------

void StateBlocks::refill(const homme::Dims& d, homme::State& in,
                         homme::State& out) {
  dims_ = d;
  nelem_ = static_cast<int>(in.size());
  const std::size_t ne = in.size();
  const bool in_place = &in == &out;
  if (!in_place) out.resize(ne);
  reads_.resize(kStateFields.size() * ne);
  writes_.resize(kStateFields.size() * ne);
  const std::size_t fs = d.field_size();
  for (std::size_t f = 0; f < kPrognosticChunks.size(); ++f) {
    const auto field = kPrognosticChunks[f];
    const std::size_t size =
        kStateFields[f] == FieldId::kQdp
            ? static_cast<std::size_t>(d.qsize) * fs
            : fs;
    for (std::size_t e = 0; e < ne; ++e) {
      homme::Chunk& written = out[e].*field;
      if (!in_place && written.size() != size) written = homme::Chunk(size);
      double* const block = written.mutable_span().data();
      writes_[f * ne + e] = block;
      reads_[f * ne + e] = in_place ? block : (in[e].*field).data();
    }
  }
  const std::size_t phis = kPrognosticChunks.size() * ne;
  for (std::size_t e = 0; e < ne; ++e) {
    reads_[phis + e] = in[e].phis.data();
    writes_[phis + e] = nullptr;
  }
}

std::size_t StateBlocks::at(FieldId id, int e) const {
  const auto f = static_cast<std::size_t>(
      std::find(kStateFields.begin(), kStateFields.end(), id) -
      kStateFields.begin());
  assert(f < kStateFields.size());
  return f * static_cast<std::size_t>(nelem_) + static_cast<std::size_t>(e);
}

FieldBinding StateBlocks::binding(FieldId id, bool writable, bool keep,
                                  int begin) const {
  FieldBinding b;
  b.id = id;
  b.extent = id == FieldId::kPhis ? std::size_t{kNpp} : dims_.field_size();
  b.writable = writable;
  b.keep = keep;
  if (id == FieldId::kQdp) {
    b.subcount = dims_.qsize;
    b.sub_stride = dims_.field_size();
  }
  b.from = reads_.data() + at(id, begin);
  b.to = writes_.data() + at(id, begin);
  return b;
}

// ---------------------------------------------------------------------------
// FieldLease / ElemCtx
// ---------------------------------------------------------------------------

FieldLease::~FieldLease() {
  if (cpe_ == nullptr) return;  // resident or moved-from: nothing to tear down
  if (access_ != Access::kRead) {
    cpe_->dma_wait(cpe_->dma_put(mem_, span_.data(), span_.size_bytes()));
    cpe_->counters().dma_cold_bytes += span_.size_bytes();
  }
  cpe_->ldm().restore(mark_);
}

FieldLease ElemCtx::lease(FieldId id, int sub, std::size_t offset_doubles,
                          std::size_t count_doubles, Access access) {
  [[maybe_unused]] const FieldBinding& b = ws_.at(id);
  assert(offset_doubles + count_doubles <= b.extent);
  assert(access == Access::kRead || b.writable);
  const double* block = ws_.read_addr(id, item_, sub);
  const std::size_t bytes = count_doubles * sizeof(double);

  FieldLease lease;
  if (sw::ResidentEntry* e = cpe_.ledger().find(
          static_cast<std::uint16_t>(id), sub, block)) {
    // Resident: serve from the keep buffer; only hull extensions move.
    const std::size_t lo = offset_doubles * sizeof(double);
    const std::size_t hi = lo + bytes;
    const bool load = access != Access::kWrite;
    // A no-load overwrite must subsume whatever is resident, else stale
    // uncovered bytes would be flushed later.
    assert(load || e->hi == e->lo || (lo <= e->lo && hi >= e->hi));
    const sw::CoverPlan plan = sw::plan_cover(*e, lo, hi, load);
    for (int i = 0; i < plan.nmiss; ++i) {
      const auto seg = plan.miss[i];
      cpe_.dma_wait(cpe_.dma_get(
          e->ldm.data() + seg.lo,
          static_cast<const std::byte*>(e->mem) + seg.lo, seg.bytes()));
    }
    cpe_.counters().dma_cold_bytes += plan.cold_bytes();
    cpe_.counters().dma_reused_bytes += plan.reused_bytes;
    if (access != Access::kRead) e->dirty = true;
    lease.span_ = std::span<double>(
        reinterpret_cast<double*>(e->ldm.data()) + offset_doubles,
        count_doubles);
    return lease;
  }

  // Transient: private staging for the lease's lifetime (LIFO on the LDM
  // stack — leases must be destroyed innermost-first).
  lease.cpe_ = &cpe_;
  if (access != Access::kRead) {
    lease.mem_ = ws_.write_addr(id, item_, sub) + offset_doubles;
  }
  lease.access_ = access;
  lease.mark_ = cpe_.ldm().used();
  lease.span_ = cpe_.ldm().alloc<double>(count_doubles);
  if (access != Access::kWrite) {
    cpe_.dma_wait(
        cpe_.dma_get(lease.span_.data(), block + offset_doubles, bytes));
    cpe_.counters().dma_cold_bytes += bytes;
  }
  return lease;
}

// ---------------------------------------------------------------------------
// KernelPipeline
// ---------------------------------------------------------------------------

KernelPipeline::KernelPipeline(std::vector<const Kernel*> kernels)
    : kernels_(std::move(kernels)) {
  for (const Kernel* k : kernels_) k->bind(ws_);
  for (const Kernel* k : kernels_) k->validate(ws_);
}

sw::KernelStats KernelPipeline::run_fused(
    sw::CoreGroup& cg, const std::vector<const Kernel*>& segment) const {
  const KeepPlan plan = plan_keeps(ws_, segment);
  const int nkernels = static_cast<int>(segment.size());
  const int nphases = nkernels + 1;  // + writeback
  std::vector<std::vector<double>> phase_cycles(
      static_cast<std::size_t>(nphases),
      std::vector<double>(sw::kCpesPerGroup, 0.0));
  std::vector<std::vector<sw::CpeCounters>> phase_ctrs(
      static_cast<std::size_t>(nphases),
      std::vector<sw::CpeCounters>(sw::kCpesPerGroup));

  const Workset& ws = ws_;
  auto kernel = [&](sw::Cpe& cpe) -> sw::Task {
    bool dvv_staged = false;
    for (int item = cpe.id(); item < ws.nitems; item += sw::kCpesPerGroup) {
      if (!dvv_staged) {
        stage_dvv(cpe, ws);
        dvv_staged = true;
      }
      {
        ElemScope scope(cpe, ws, plan, item);
        for (int k = 0; k < nkernels; ++k) {
          const double c0 = cpe.clock();
          const sw::CpeCounters ctr0 = cpe.counters();
          {
            sw::LdmFrame kernel_frame(cpe.ldm());
            ElemCtx ctx(cpe, ws, item);
            segment[static_cast<std::size_t>(k)]->element(cpe, ctx);
          }
          phase_cycles[static_cast<std::size_t>(k)]
                      [static_cast<std::size_t>(cpe.id())] +=
              cpe.clock() - c0;
          phase_ctrs[static_cast<std::size_t>(k)]
                    [static_cast<std::size_t>(cpe.id())] +=
              sw::counters_delta(cpe.counters(), ctr0);
        }
        const double c0 = cpe.clock();
        const sw::CpeCounters ctr0 = cpe.counters();
        scope.flush();
        phase_cycles[static_cast<std::size_t>(nkernels)]
                    [static_cast<std::size_t>(cpe.id())] += cpe.clock() - c0;
        phase_ctrs[static_cast<std::size_t>(nkernels)]
                  [static_cast<std::size_t>(cpe.id())] +=
            sw::counters_delta(cpe.counters(), ctr0);
      }
      co_await cpe.yield();
    }
  };

  sw::RunOptions opts;
  opts.ncpes = sw::kCpesPerGroup;
  opts.spawn_overhead_cycles = sw::kSpawnCycles;
  opts.preserve_ldm = true;
  // Traced launches get a named span ("launch:<first kernel>[+n]") that
  // stays open (trace_defer) so the per-kernel phase breakdown can be
  // emitted inside it before it closes with the whole-launch counters.
  obs::Tracer* tracer = cg.tracer();
  const bool tracing = tracer != nullptr && tracer->enabled();
  if (tracing) {
    // Appended piecewise: GCC 12 reports a false -Wrestrict on
    // libstdc++'s operator+(const char*, std::string&&).
    std::string label = "launch:";
    label += segment[0]->name();
    if (nkernels > 1) {
      label += '+';
      label += std::to_string(nkernels - 1);
    }
    opts.trace_name = tracer->intern(label);
    opts.trace_defer = true;
  }
  sw::KernelStats stats = cg.run(kernel, opts);

  for (int ph = 0; ph < nphases; ++ph) {
    sw::PhaseStats p;
    p.name = ph < nkernels
                 ? std::string(segment[static_cast<std::size_t>(ph)]->name())
                 : "writeback";
    for (int c = 0; c < sw::kCpesPerGroup; ++c) {
      p.cycles = std::max(
          p.cycles,
          phase_cycles[static_cast<std::size_t>(ph)][static_cast<std::size_t>(c)]);
      p.totals +=
          phase_ctrs[static_cast<std::size_t>(ph)][static_cast<std::size_t>(c)];
    }
    p.seconds = p.cycles / sw::kCpeClockHz;
    stats.phases.push_back(std::move(p));
  }

  if (tracing && cg.trace_span_open()) {
    // Per-kernel phases as complete events laid end to end inside the
    // launch span (phase cycles are max-over-CPEs, so the layout is an
    // attribution, not a strict schedule), then close the deferred span
    // with the whole-launch counter attachment.
    obs::Track* trk = cg.trace_track();
    double t = cg.trace_launch_t0_us();
    for (const sw::PhaseStats& p : stats.phases) {
      const sw::CounterAttachment attach = sw::counter_attachment(p.totals);
      std::string phase_name = "kernel:";
      phase_name += p.name;
      trk->complete_at(tracer->intern(phase_name), t, p.seconds * 1e6,
                       attach);
      t += p.seconds * 1e6;
    }
    const sw::CounterAttachment attach = sw::counter_attachment(stats.totals);
    cg.trace_end_launch(attach);
  }
  return stats;
}

sw::KernelStats KernelPipeline::run(sw::CoreGroup& cg) const {
  sw::KernelStats total;
  std::size_t i = 0;
  while (i < kernels_.size()) {
    if (!kernels_[i]->fusible()) {
      merge_stats(total, kernels_[i]->launch(cg, ws_), kernels_[i]->name());
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < kernels_.size() && kernels_[j]->fusible()) ++j;
    merge_stats(total,
                run_fused(cg, {kernels_.begin() + static_cast<std::ptrdiff_t>(i),
                               kernels_.begin() + static_cast<std::ptrdiff_t>(j)}),
                kernels_[i]->name());
    i = j;
  }
  total.seconds = total.cycles / sw::kCpeClockHz;
  return total;
}

}  // namespace accel
