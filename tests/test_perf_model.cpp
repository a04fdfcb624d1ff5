#include "perf/machine_model.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "homme/bndry.hpp"
#include "mesh/cubed_sphere.hpp"
#include "mesh/partition.hpp"
#include "net/mini_mpi.hpp"

namespace {

using perf::MachineModel;
using perf::Version;

/// One calibration shared across tests (runs the simulator kernels once).
const MachineModel& model() {
  static const MachineModel m = MachineModel::calibrate(64, 8, 32);
  return m;
}

TEST(MachineModel, PortOrderingHolds) {
  const auto& m = model();
  EXPECT_GT(m.cost[0].seconds, m.cost[1].seconds);  // ori > openacc
  EXPECT_GT(m.cost[1].seconds, m.cost[2].seconds);  // openacc > athread
  EXPECT_GT(m.cost[2].flops, 0.0);
}

TEST(MachineModel, SypdImprovesWithEachPort) {
  const auto& m = model();
  const double ori = m.sypd(30, 1350, Version::kOriginal);
  const double acc = m.sypd(30, 1350, Version::kOpenAcc);
  const double ath = m.sypd(30, 1350, Version::kAthread);
  EXPECT_GT(acc, ori);
  EXPECT_GT(ath, acc);
  // Figure 6: OpenACC gains 1.4-1.5x at moderate scale; Athread more.
  EXPECT_GT(acc / ori, 1.1);
  EXPECT_LT(acc / ori, 2.5);
}

TEST(MachineModel, SypdAnchorsNearPaperValues) {
  const auto& m = model();
  // The two calibration anchors (ne30 athread / ne120 openacc) must come
  // back close to the paper's 21.5 and 3.4 SYPD (communication adds a
  // little on top of the anchored compute).
  EXPECT_NEAR(m.sypd(30, 5400, Version::kAthread), 21.5, 2.5);
  EXPECT_NEAR(m.sypd(120, 28800, Version::kOpenAcc), 3.4, 0.7);
}

TEST(MachineModel, SypdScalesWithProcessCount) {
  const auto& m = model();
  EXPECT_GT(m.sypd(30, 5400, Version::kAthread),
            m.sypd(30, 216, Version::kAthread));
}

TEST(MachineModel, StrongScalingEfficiencyFallsAsExpected) {
  const auto& m = model();
  // Figure 7: ne256 efficiency ~21.7% at 131072 from a 4096 base; ne1024
  // holds ~51% from an 8192 base.
  const double e256 =
      m.parallel_efficiency(256, 4096, 131072, Version::kAthread);
  const double e1024 =
      m.parallel_efficiency(1024, 8192, 131072, Version::kAthread);
  EXPECT_GT(e256, 0.08);
  EXPECT_LT(e256, 0.45);
  EXPECT_GT(e1024, 0.3);
  EXPECT_LT(e1024, 0.8);
  EXPECT_GT(e1024, e256);  // more elements per process scales better
}

TEST(MachineModel, PflopsGrowWithMachineAndAnchorHolds) {
  const auto& m = model();
  const auto small = m.dycore_step(1024, 8192, Version::kAthread);
  const auto large = m.dycore_step(1024, 131072, Version::kAthread);
  EXPECT_NEAR(small.pflops, 0.18, 0.03);  // the documented anchor
  EXPECT_GT(large.pflops, 4.0 * small.pflops);
}

TEST(MachineModel, WeakScalingReachesPetascale) {
  const auto& m = model();
  // Figure 8's headline: 650 elements/process on 155,000 processes
  // (10,075,000 cores) sustains ~3.3 PFlops.
  const auto s = m.dycore_step(4096, 155000, Version::kAthread);
  EXPECT_GT(s.pflops, 2.0);
  EXPECT_LT(s.pflops, 5.5);
}

TEST(MachineModel, OverlapReducesStepTime) {
  const auto& m = model();
  // At a scale with real interior work to hide behind (ne1024, 192
  // elements per process), overlap must claw back a visible share —
  // section 7.6 reports ~23% of large-run time in communication.
  const auto with = m.dycore_step(1024, 32768, Version::kAthread, true);
  const auto without = m.dycore_step(1024, 32768, Version::kAthread, false);
  EXPECT_LT(with.total_s, without.total_s);
  EXPECT_GT((without.total_s - with.total_s) / without.total_s, 0.05);
  // At extreme strong scaling everything is boundary; overlap can then
  // not help, but must never hurt.
  const auto w2 = m.dycore_step(256, 65536, Version::kAthread, true);
  const auto wo2 = m.dycore_step(256, 65536, Version::kAthread, false);
  EXPECT_LE(w2.total_s, wo2.total_s * (1.0 + 1e-12));
}

TEST(MachineModel, DynDtScalesInverselyWithResolution) {
  EXPECT_DOUBLE_EQ(MachineModel::dyn_dt_seconds(30), 300.0);
  EXPECT_DOUBLE_EQ(MachineModel::dyn_dt_seconds(120), 75.0);
}

TEST(MachineModel, HaloBytesAreTheRowsTheExchangeSends) {
  // halo_bytes models what one rank sends per one-field DSS: one row per
  // (boundary element, shared node). Held to the bytes BndryExchange
  // sends for a 1-level DSS on an SFC partition, averaged over the ranks.
  MachineModel mm;
  mm.nlev = 1;
  for (int ne : {8, 16}) {
    const auto m = mesh::CubedSphere::build(ne, mesh::kEarthRadius);
    std::vector<std::vector<double>> field(
        static_cast<std::size_t>(m.nelem()),
        std::vector<double>(mesh::kNpp, 1.0));
    for (int nranks : {6, 24, 96}) {
      const auto part = mesh::Partition::build(m, nranks);
      const auto plan = mesh::CommPlan::build(m, part);
      std::vector<std::size_t> sent(static_cast<std::size_t>(nranks));
      net::Cluster cluster(nranks);
      cluster.run([&](net::Rank& r) {
        homme::BndryExchange bx(m, part, plan, r.rank());
        std::vector<double*> f;
        for (int le = 0; le < bx.nlocal(); ++le) {
          f.push_back(field[static_cast<std::size_t>(bx.global_elem(le))]
                          .data());
        }
        bx.dss_levels(f, 1, &r);
        sent[static_cast<std::size_t>(r.rank())] = bx.last_msg_bytes();
      });
      double mean = 0.0;
      for (std::size_t b : sent) mean += static_cast<double>(b) / nranks;
      const long long local = m.nelem() / nranks;
      EXPECT_NEAR(mm.halo_bytes(local) / mean, 1.0, 0.05)
          << "ne " << ne << " at " << nranks << " ranks: model "
          << mm.halo_bytes(local) << " B, sent " << mean << " B";
    }
  }
}

}  // namespace
