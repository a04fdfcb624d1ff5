// Resilience layer, fault side: every injected fault — DMA failure or
// corruption, register-message drop, CPE death, mini-MPI message
// drop/duplication/truncation — must surface as a typed exception with
// the target, operation index and byte count attached, never as UB or a
// hang; and a faulted accelerator launch must complete via the host
// fallback path bit-identically to a never-accelerated run.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "accel/accel_driver.hpp"
#include "homme/driver.hpp"
#include "homme/init.hpp"
#include "homme/remap.hpp"
#include "net/mini_mpi.hpp"
#include "sw/cg_pool.hpp"
#include "sw/core_group.hpp"
#include "sw/fault.hpp"
#include "sw/task.hpp"
#include "state_helpers.hpp"

namespace {

using sw::CoreGroup;
using sw::Cpe;
using sw::FaultKind;
using sw::FaultPlan;
using sw::KernelFault;
using sw::Task;
using state_helpers::deep_copy;
using state_helpers::states_bitwise_equal;

constexpr int kWords = 16;  // doubles per DMA block in these kernels

/// Every CPE streams `ops` blocks of kWords doubles out of `mem`.
void run_dma_kernel(CoreGroup& cg, FaultPlan& plan, std::vector<double>& mem,
                    int ops) {
  cg.set_fault_plan(&plan);
  cg.run(
      [&](Cpe& cpe) -> Task {
        sw::LdmFrame frame(cpe.ldm());
        auto buf = cpe.ldm().alloc<double>(kWords);
        double* base = mem.data() + cpe.id() * ops * kWords;
        for (int b = 0; b < ops; ++b) {
          cpe.get(buf, base + b * kWords);
          for (auto& x : buf) x += 1.0;
          cpe.put(base + b * kWords, std::span<const double>(buf));
        }
        co_return;
      });
}

TEST(FaultPlan, DmaFailThrowsTypedFaultWithCpeOpAndBytes) {
  CoreGroup cg;
  FaultPlan plan;
  plan.inject({FaultKind::kDmaFail, /*target=*/5, /*op_index=*/1});
  std::vector<double> mem(sw::kCpesPerGroup * 4 * kWords, 1.0);
  try {
    run_dma_kernel(cg, plan, mem, 4);
    FAIL() << "expected KernelFault";
  } catch (const KernelFault& e) {
    EXPECT_EQ(e.kind(), FaultKind::kDmaFail);
    EXPECT_EQ(e.cpe(), 5);
    EXPECT_EQ(e.op_index(), 1);
    EXPECT_EQ(e.bytes(), kWords * sizeof(double));
    EXPECT_NE(std::string(e.what()).find("dma-fail"), std::string::npos);
  }
  ASSERT_EQ(plan.fired_count(), 1u);
  EXPECT_EQ(plan.fired()[0].target, 5);
}

TEST(FaultPlan, CpeDeathKillsTheChosenCpeMidKernel) {
  CoreGroup cg;
  FaultPlan plan;
  plan.inject({FaultKind::kCpeDeath, /*target=*/3, /*op_index=*/2});
  std::vector<double> mem(sw::kCpesPerGroup * 4 * kWords, 1.0);
  try {
    run_dma_kernel(cg, plan, mem, 4);
    FAIL() << "expected KernelFault";
  } catch (const KernelFault& e) {
    EXPECT_EQ(e.kind(), FaultKind::kCpeDeath);
    EXPECT_EQ(e.cpe(), 3);
    EXPECT_EQ(e.op_index(), 2);
  }
}

TEST(FaultPlan, DmaCorruptionIsSeedDeterministic) {
  auto corrupt_run = [](std::uint64_t seed) {
    CoreGroup cg;
    FaultPlan plan(seed);
    plan.inject({FaultKind::kDmaCorrupt, /*target=*/0, /*op_index=*/0});
    std::vector<double> mem(sw::kCpesPerGroup * 2 * kWords, 3.0);
    run_dma_kernel(cg, plan, mem, 2);
    EXPECT_EQ(plan.fired_count(), 1u);
    return mem;
  };

  const auto a = corrupt_run(42);
  const auto b = corrupt_run(42);
  const auto c = corrupt_run(43);
  EXPECT_EQ(a, b) << "same seed must corrupt identically";
  EXPECT_NE(a, c) << "different seed must corrupt differently";

  // The corruption touched CPE 0's first block and nothing else.
  std::vector<double> clean(sw::kCpesPerGroup * 2 * kWords, 3.0);
  {
    CoreGroup cg;
    FaultPlan none;
    run_dma_kernel(cg, none, clean, 2);
  }
  int diffs = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != clean[i]) {
      ++diffs;
      EXPECT_LT(i, static_cast<std::size_t>(2 * kWords));
    }
  }
  EXPECT_GE(diffs, 1);
}

TEST(FaultPlan, RegDropSurfacesAsTypedFaultNotAHang) {
  // Row ring: every CPE sends one message right and receives one from the
  // left. Dropping any send starves a receiver — the scheduler's deadlock
  // report must arrive as a typed KernelFault, not a generic error.
  CoreGroup cg;
  FaultPlan plan;
  plan.inject({FaultKind::kRegDrop, /*target=*/9, /*op_index=*/0});
  cg.set_fault_plan(&plan);
  try {
    cg.run([&](Cpe& cpe) -> Task {
      co_await cpe.send_row((cpe.col() + 1) % sw::kCpeCols,
                            sw::v4d{1.0, 2.0, 3.0, 4.0});
      (void)co_await cpe.recv_row();
      co_return;
    });
    FAIL() << "expected KernelFault";
  } catch (const KernelFault& e) {
    EXPECT_EQ(e.kind(), FaultKind::kRegDrop);
    EXPECT_EQ(e.cpe(), 9);
  }
}

TEST(FaultPlan, SpecsFireAtMostOnceAndResetRearms) {
  CoreGroup cg;
  FaultPlan plan;
  plan.inject({FaultKind::kDmaFail, /*target=*/0, /*op_index=*/0});
  std::vector<double> mem(sw::kCpesPerGroup * 2 * kWords, 1.0);
  EXPECT_THROW(run_dma_kernel(cg, plan, mem, 2), KernelFault);
  EXPECT_EQ(plan.fired_count(), 1u);
  // Consumed: the same plan no longer fires.
  run_dma_kernel(cg, plan, mem, 2);
  EXPECT_EQ(plan.fired_count(), 1u);
  // reset() re-arms.
  plan.reset();
  EXPECT_THROW(run_dma_kernel(cg, plan, mem, 2), KernelFault);
  EXPECT_EQ(plan.fired_count(), 1u);
}

// ---------------------------------------------------------------------------
// mini-MPI faults
// ---------------------------------------------------------------------------

TEST(CommFaults, DroppedMessageTimesOutWithBlockedRankNamed) {
  net::Cluster cluster(2);
  sw::FaultPlan plan;
  plan.inject({FaultKind::kMsgDrop, /*target=*/0, /*op_index=*/0});
  cluster.set_fault_plan(&plan);
  cluster.set_watchdog(0.2);
  try {
    cluster.run([&](net::Rank& r) {
      std::vector<double> buf(4, static_cast<double>(r.rank()));
      if (r.rank() == 0) r.send(1, /*tag=*/7, buf);
      if (r.rank() == 1) r.recv(0, /*tag=*/7, buf);
    });
    FAIL() << "expected CommTimeout";
  } catch (const net::CommTimeout& e) {
    EXPECT_EQ(e.rank(), 1);
    EXPECT_EQ(e.peer(), 0);
    EXPECT_EQ(e.tag(), 7);
  }
  cluster.set_fault_plan(nullptr);
  EXPECT_EQ(plan.fired_count(), 1u);
  EXPECT_EQ(plan.fired()[0].kind, FaultKind::kMsgDrop);
}

TEST(CommFaults, DuplicatedMessageDeliversTwice) {
  net::Cluster cluster(2);
  sw::FaultPlan plan;
  plan.inject({FaultKind::kMsgDuplicate, /*target=*/0, /*op_index=*/0});
  cluster.set_fault_plan(&plan);
  cluster.run([&](net::Rank& r) {
    std::vector<double> buf{1.5, 2.5};
    if (r.rank() == 0) {
      r.send(1, 3, buf);
    } else {
      std::vector<double> first(2), second(2);
      r.recv(0, 3, first);
      r.recv(0, 3, second);  // the duplicate; would hang without it
      EXPECT_EQ(first, buf);
      EXPECT_EQ(second, buf);
    }
  });
  cluster.set_fault_plan(nullptr);
}

TEST(CommFaults, TruncatedMessageThrowsWithByteCounts) {
  net::Cluster cluster(2);
  sw::FaultPlan plan;
  plan.inject({FaultKind::kMsgTruncate, /*target=*/0, /*op_index=*/0});
  cluster.set_fault_plan(&plan);
  try {
    cluster.run([&](net::Rank& r) {
      std::vector<double> buf(8, 1.0);
      if (r.rank() == 0) r.send(1, 1, buf);
      if (r.rank() == 1) r.recv(0, 1, buf);
    });
    FAIL() << "expected CommFault";
  } catch (const net::CommFault& e) {
    EXPECT_EQ(e.rank(), 1);
    EXPECT_EQ(e.peer(), 0);
    EXPECT_EQ(e.bytes_expected(), 8 * sizeof(double));
    EXPECT_EQ(e.bytes_got(), 4 * sizeof(double));
  }
  cluster.set_fault_plan(nullptr);
}

TEST(CommFaults, LengthMismatchIsATypedDiagnosticError) {
  // Satellite: a receive whose buffer disagrees with the payload must not
  // silently truncate or overrun — it names both byte counts.
  net::Cluster cluster(2);
  try {
    cluster.run([&](net::Rank& r) {
      if (r.rank() == 0) {
        std::vector<double> small(4, 2.0);
        r.send(1, 11, small);
      } else {
        std::vector<double> big(8);
        r.recv(0, 11, big);
      }
    });
    FAIL() << "expected CommFault";
  } catch (const net::CommFault& e) {
    EXPECT_EQ(e.rank(), 1);
    EXPECT_EQ(e.peer(), 0);
    EXPECT_EQ(e.tag(), 11);
    EXPECT_EQ(e.bytes_expected(), 8 * sizeof(double));
    EXPECT_EQ(e.bytes_got(), 4 * sizeof(double));
    EXPECT_NE(std::string(e.what()).find("length mismatch"),
              std::string::npos);
  }
}

TEST(CommFaults, WatchdogBoundsAReceiveThatCanNeverComplete) {
  net::Cluster cluster(2);
  cluster.set_watchdog(0.1);
  try {
    cluster.run([&](net::Rank& r) {
      if (r.rank() == 1) {
        std::vector<double> buf(1);
        r.recv(0, /*tag=*/3, buf);  // nothing was ever sent
      }
    });
    FAIL() << "expected CommTimeout";
  } catch (const net::CommTimeout& e) {
    EXPECT_EQ(e.rank(), 1);
    EXPECT_EQ(e.peer(), 0);
    EXPECT_EQ(e.tag(), 3);
  }
}

// ---------------------------------------------------------------------------
// Graceful degradation
// ---------------------------------------------------------------------------

TEST(GracefulDegradation, LateFaultLeavesTheStateUntouched) {
  homme::Dims d;
  d.nlev = 8;
  d.qsize = 2;
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);
  const auto pool = std::make_shared<sw::CgPool>(4);

  // Every element moves the same DMA descriptors, and CPE 0 runs the
  // first element of each of the four shards (6 elements each).
  std::size_t ops_per_elem = 0;
  {
    accel::PipelineAccelerator probe(d);
    probe.set_cg_pool(pool, {0, 1, 2, 3});
    homme::State t = deep_copy(s);
    probe.vertical_remap(t);
    ops_per_elem = probe.last_stats().totals.dma_ops / s.size();
  }
  ASSERT_GT(ops_per_elem, 3u);

  // CPE 0 fails its third descriptor of shard 1, after shard 0 has
  // written all of its elements' output chunks.
  accel::PipelineAccelerator pa(d);
  pa.set_cg_pool(pool, {0, 1, 2, 3});
  FaultPlan plan;
  plan.inject({FaultKind::kDmaFail, /*target=*/0,
               static_cast<int>(ops_per_elem) + 2});
  pa.set_fault_plan(&plan);
  const homme::State before = deep_copy(s);
  const homme::State read = s;  // the chunks the kernels read
  pa.vertical_remap(s);
  ASSERT_EQ(plan.fired_count(), 1u);
  EXPECT_EQ(pa.fallbacks(), 1);
  // The launch wrote only spares: the chunks it read hold their bits.
  EXPECT_TRUE(states_bitwise_equal(read, before));
  // The host redo ran on the untouched state.
  homme::State host = deep_copy(before);
  homme::vertical_remap_local(d, host);
  EXPECT_TRUE(states_bitwise_equal(s, host));

  // Perturb the state so the next remap's output differs from the
  // partial output the faulted launch left in the spares; that output
  // must not leak into the next unfaulted remap.
  for (homme::ElementState& es : s) {
    auto dp = es.dp.mutable_span();
    auto T = es.T.mutable_span();
    for (std::size_t f = 0; f < dp.size(); ++f) {
      dp[f] *= 1.0 + 0.05 * std::sin(0.7 * static_cast<double>(f));
      T[f] += 0.5;
    }
  }
  homme::State want = deep_copy(s);
  homme::vertical_remap_local(d, want);
  pa.vertical_remap(s);
  EXPECT_EQ(pa.fallbacks(), 1);
  EXPECT_EQ(pa.last_stats().totals.host_fallbacks, 0u);
  EXPECT_TRUE(states_bitwise_equal(s, want));
}

TEST(GracefulDegradation, FaultedLaunchFallsBackToHostBitIdentically) {
  homme::Dims d;
  d.nlev = 8;
  d.qsize = 2;
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::DycoreConfig cfg;
  cfg.remap_freq = 3;  // the single remap in 3 steps is the faulted launch

  homme::State host_s = homme::baroclinic(mesh, d);
  homme::State accel_s = host_s;
  homme::State clean_s = host_s;

  homme::Dycore host_dc(mesh, d, cfg);
  homme::Dycore accel_dc(mesh, d, cfg);
  homme::Dycore clean_dc(mesh, d, cfg);
  accel::PipelineAccelerator pa(d);
  sw::FaultPlan plan;
  plan.inject({FaultKind::kDmaFail, /*target=*/-1, /*op_index=*/0});
  pa.set_fault_plan(&plan);
  accel_dc.attach_accelerator(&pa);
  accel::PipelineAccelerator clean(d);
  clean_dc.attach_accelerator(&clean);

  host_dc.run(host_s, 3);
  accel_dc.run(accel_s, 3);  // must complete despite the fault
  clean_dc.run(clean_s, 3);

  EXPECT_EQ(plan.fired_count(), 1u);
  EXPECT_EQ(pa.launches(), 1);
  EXPECT_EQ(pa.fallbacks(), 1);
  EXPECT_EQ(pa.last_stats().totals.host_fallbacks, 1u);
  EXPECT_FALSE(pa.last_fault().empty());
  EXPECT_EQ(clean.launches(), 1);
  EXPECT_EQ(clean.fallbacks(), 0);
  // The discarded launch never touched the state; the host redo makes the
  // run indistinguishable from a never-accelerated one, and from one whose
  // launch never faulted: a fallback leaves no trace in the state.
  EXPECT_TRUE(states_bitwise_equal(host_s, accel_s));
  EXPECT_TRUE(states_bitwise_equal(host_s, clean_s));
}

TEST(GracefulDegradation, RecoveredAcceleratorKeepsWorkingAfterTheFault) {
  homme::Dims d;
  d.nlev = 8;
  d.qsize = 1;
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::State s = homme::baroclinic(mesh, d);

  accel::PipelineAccelerator pa(d);
  sw::FaultPlan plan;
  plan.inject({FaultKind::kCpeDeath, /*target=*/7, /*op_index=*/0});
  pa.set_fault_plan(&plan);

  pa.vertical_remap(s);  // faulted -> host fallback
  EXPECT_EQ(pa.fallbacks(), 1);
  pa.vertical_remap(s);  // spec consumed: offload works again
  EXPECT_EQ(pa.launches(), 2);
  EXPECT_EQ(pa.fallbacks(), 1);
  EXPECT_EQ(pa.last_stats().totals.host_fallbacks, 0u);
  EXPECT_GT(pa.last_stats().totals.total_dma_bytes(), 0u);
}

}  // namespace
