#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

/// \file counters.hpp
/// Per-CPE and aggregated performance counters. The simulator measures
/// flops and memory traffic the way the paper's methodology does with the
/// PERF hardware monitor (section 8.1.1): by counting retired arithmetic
/// operations and DMA transfers on the CPE cluster.

namespace sw {

/// Counters accumulated by one CPE while a kernel runs.
struct CpeCounters {
  std::uint64_t scalar_flops = 0;   ///< retired scalar DP operations
  std::uint64_t vector_flops = 0;   ///< retired DP operations issued as vectors
  std::uint64_t dma_get_bytes = 0;  ///< bytes moved main memory -> LDM
  std::uint64_t dma_put_bytes = 0;  ///< bytes moved LDM -> main memory
  std::uint64_t dma_ops = 0;        ///< DMA descriptors issued
  std::uint64_t reg_sends = 0;      ///< register-communication messages sent
  std::uint64_t reg_recvs = 0;      ///< register-communication messages read
  std::uint64_t ldm_peak_bytes = 0; ///< high-water mark of LDM usage
  /// Bytes a kernel-pipeline lease served straight from LDM-resident data
  /// (a transfer the residency ledger proved redundant and skipped).
  std::uint64_t dma_reused_bytes = 0;
  /// Bytes the pipeline's lease/flush path actually moved over the bus
  /// (subset of dma_get_bytes + dma_put_bytes attributable to staging).
  std::uint64_t dma_cold_bytes = 0;
  /// Launches the accelerator driver discarded after a fault and re-ran
  /// on the host reference path (graceful degradation; see accel_driver).
  std::uint64_t host_fallbacks = 0;
  /// DMA descriptors issued while another core group's stream was active
  /// on the shared memory controller (sw::MemoryContention attached).
  std::uint64_t mc_contended_ops = 0;
  /// Extra modeled cycles those descriptors paid to contention (bandwidth
  /// inflation + descriptor queuing), rounded to whole cycles.
  std::uint64_t mc_stall_cycles = 0;

  CpeCounters& operator+=(const CpeCounters& o) {
    scalar_flops += o.scalar_flops;
    vector_flops += o.vector_flops;
    dma_get_bytes += o.dma_get_bytes;
    dma_put_bytes += o.dma_put_bytes;
    dma_ops += o.dma_ops;
    reg_sends += o.reg_sends;
    reg_recvs += o.reg_recvs;
    if (o.ldm_peak_bytes > ldm_peak_bytes) ldm_peak_bytes = o.ldm_peak_bytes;
    dma_reused_bytes += o.dma_reused_bytes;
    dma_cold_bytes += o.dma_cold_bytes;
    host_fallbacks += o.host_fallbacks;
    mc_contended_ops += o.mc_contended_ops;
    mc_stall_cycles += o.mc_stall_cycles;
    return *this;
  }

  std::uint64_t total_flops() const { return scalar_flops + vector_flops; }
  std::uint64_t total_dma_bytes() const { return dma_get_bytes + dma_put_bytes; }
};

/// Difference of two counter snapshots taken on the same CPE (additive
/// fields subtract; the LDM peak keeps the later high-water mark).
inline CpeCounters counters_delta(const CpeCounters& after,
                                  const CpeCounters& before) {
  CpeCounters d;
  d.scalar_flops = after.scalar_flops - before.scalar_flops;
  d.vector_flops = after.vector_flops - before.vector_flops;
  d.dma_get_bytes = after.dma_get_bytes - before.dma_get_bytes;
  d.dma_put_bytes = after.dma_put_bytes - before.dma_put_bytes;
  d.dma_ops = after.dma_ops - before.dma_ops;
  d.reg_sends = after.reg_sends - before.reg_sends;
  d.reg_recvs = after.reg_recvs - before.reg_recvs;
  d.ldm_peak_bytes = after.ldm_peak_bytes;
  d.dma_reused_bytes = after.dma_reused_bytes - before.dma_reused_bytes;
  d.dma_cold_bytes = after.dma_cold_bytes - before.dma_cold_bytes;
  d.host_fallbacks = after.host_fallbacks - before.host_fallbacks;
  d.mc_contended_ops = after.mc_contended_ops - before.mc_contended_ops;
  d.mc_stall_cycles = after.mc_stall_cycles - before.mc_stall_cycles;
  return d;
}

/// A CpeCounters snapshot rendered as an obs:: counter attachment, so a
/// launch/phase span carries the full counter set into the per-phase
/// summary. Owns the inline array the obs::CounterList points into — keep
/// it alive for the duration of the trace call.
struct CounterAttachment {
  std::array<obs::Counter, 13> items{};
  std::size_t count = 0;
  operator obs::CounterList() const {
    return obs::CounterList(items.data(), count);
  }
};

/// Attach every CpeCounters field by name. Table 1 and the bench reports
/// consume these through the summary instead of a parallel bookkeeping
/// path. Note ldm_peak_bytes is a high-water mark: summed across launches
/// it is only meaningful via per-launch summary deltas.
inline CounterAttachment counter_attachment(const CpeCounters& c) {
  CounterAttachment a;
  const auto add = [&a](const char* name, std::uint64_t v) {
    a.items[a.count++] = obs::Counter{name, v};
  };
  add("scalar_flops", c.scalar_flops);
  add("vector_flops", c.vector_flops);
  add("dma_get_bytes", c.dma_get_bytes);
  add("dma_put_bytes", c.dma_put_bytes);
  add("dma_ops", c.dma_ops);
  add("reg_sends", c.reg_sends);
  add("reg_recvs", c.reg_recvs);
  add("ldm_peak_bytes", c.ldm_peak_bytes);
  add("dma_reused_bytes", c.dma_reused_bytes);
  add("dma_cold_bytes", c.dma_cold_bytes);
  add("host_fallbacks", c.host_fallbacks);
  add("mc_contended_ops", c.mc_contended_ops);
  add("mc_stall_cycles", c.mc_stall_cycles);
  return a;
}

/// One pipeline stage's share of a kernel launch (per-kernel breakdown of
/// a fused multi-kernel launch, plus the trailing residency writeback).
struct PhaseStats {
  std::string name;
  double cycles = 0.0;   ///< max over CPEs of the cycles spent in this phase
  double seconds = 0.0;
  CpeCounters totals;    ///< summed over all CPEs
};

/// Result of running one kernel on the simulated core group.
struct KernelStats {
  double cycles = 0.0;       ///< modeled time: max CPE clock at completion
  double seconds = 0.0;      ///< cycles / clock frequency
  CpeCounters totals;        ///< summed over all CPEs
  /// Per-kernel breakdown when the launch came from a KernelPipeline;
  /// empty for plain CoreGroup::run launches. Phase cycles need not sum
  /// to `cycles` (spawn overhead and the bandwidth floor apply only to
  /// the whole launch).
  std::vector<PhaseStats> phases;

  double gflops() const {
    return seconds > 0 ? static_cast<double>(totals.total_flops()) / seconds / 1e9
                       : 0.0;
  }
  /// Fraction of requested staging bytes the residency ledger served from
  /// LDM instead of the bus: reused / (reused + moved).
  double reuse_fraction() const {
    const double avoided = static_cast<double>(totals.dma_reused_bytes);
    const double moved = static_cast<double>(totals.total_dma_bytes());
    return avoided + moved > 0.0 ? avoided / (avoided + moved) : 0.0;
  }
};

}  // namespace sw
