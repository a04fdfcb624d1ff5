#include "accel/pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "accel/accel_driver.hpp"
#include "accel/euler_acc.hpp"
#include "accel/hypervis_acc.hpp"
#include "accel/physics_acc.hpp"
#include "accel/remap_acc.hpp"
#include "accel/table1.hpp"
#include "homme/driver.hpp"
#include "homme/init.hpp"
#include "homme/remap.hpp"
#include "mesh/cubed_sphere.hpp"
#include "physics/driver.hpp"
#include "scenario/experiments.hpp"
#include "sw/cg_pool.hpp"
#include "alloc_counter.hpp"
#include "state_helpers.hpp"

namespace {

struct ChainSetup {
  homme::Dims d;
  homme::State base;
  accel::PackedGeometry geo;
  accel::EulerDerived derived;

  ChainSetup(int nelem, int nlev, int qsize) {
    d.nlev = nlev;
    d.qsize = qsize;
    auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
    base = accel::synthetic_state(d, nelem);
    geo = accel::PackedGeometry::pack(mesh, nelem);
    derived = accel::EulerDerived::make(d, nelem);
  }
};

/// Runs euler -> hypervis_dp2 -> biharmonic_dp3d -> vertical_remap either
/// as ONE fused pipeline or as four isolated single-kernel launches.
sw::KernelStats run_chain(ChainSetup& s, homme::State& p, bool fused) {
  accel::StateBlocks blocks;
  blocks.refill(s.d, p, p);
  accel::EulerKernel euler(blocks, s.geo, s.derived);
  accel::HypervisKernel dp2(blocks, s.geo, accel::HvKernel::kDp2);
  accel::HypervisKernel dp3d(blocks, s.geo, accel::HvKernel::kBiharmDp3d);
  accel::RemapKernel remap(blocks, 0, blocks.nelem());
  const std::vector<const accel::Kernel*> kernels{&euler, &dp2, &dp3d,
                                                  &remap};
  if (fused) {
    sw::CoreGroup cg;
    return accel::KernelPipeline(kernels).run(cg);
  }
  sw::KernelStats total;
  for (const accel::Kernel* k : kernels) {
    sw::CoreGroup cg;  // fresh group: no residency carries over
    const auto stats = accel::KernelPipeline({k}).run(cg);
    total.cycles += stats.cycles;
    total.seconds += stats.seconds;
    total.totals += stats.totals;
  }
  return total;
}

TEST(KernelPipeline, ChainMatchesIsolatedBitExact) {
  ChainSetup s(8, 32, 6);
  homme::State isolated = s.base;
  homme::State chained = s.base;
  (void)run_chain(s, isolated, /*fused=*/false);
  (void)run_chain(s, chained, /*fused=*/true);
  EXPECT_EQ(accel::state_max_rel_diff(isolated, chained), 0.0);
}

TEST(KernelPipeline, ChainOnASharedCopyMatchesAPrivateCopy) {
  // Later kernels of the chain read blocks earlier ones wrote (the remap
  // streams the tracers euler updated). On a copy-on-write copy the
  // tables must read the chunks they un-shared, not those the base still
  // holds, and the base must keep its bits.
  ChainSetup s(8, 32, 6);
  const homme::State before = state_helpers::deep_copy(s.base);
  homme::State shared = s.base;
  homme::State owned = state_helpers::deep_copy(s.base);
  (void)run_chain(s, shared, /*fused=*/true);
  (void)run_chain(s, owned, /*fused=*/true);
  EXPECT_TRUE(state_helpers::states_bitwise_equal(shared, owned));
  EXPECT_TRUE(state_helpers::states_bitwise_equal(s.base, before));
}

TEST(KernelPipeline, ChainMovesStrictlyFewerBytes) {
  ChainSetup s(16, 64, 8);
  homme::State isolated = s.base;
  homme::State chained = s.base;
  const auto iso = run_chain(s, isolated, /*fused=*/false);
  const auto fus = run_chain(s, chained, /*fused=*/true);

  EXPECT_LT(fus.totals.total_dma_bytes(), iso.totals.total_dma_bytes());
  EXPECT_GT(fus.totals.dma_reused_bytes, 0u);
  EXPECT_GT(fus.reuse_fraction(), 0.0);
  EXPECT_LE(fus.totals.ldm_peak_bytes, sw::kLdmBytes);
}

TEST(KernelPipeline, PhaseBreakdownCoversKernelsAndWriteback) {
  ChainSetup s(8, 32, 4);
  homme::State p = s.base;
  const auto stats = run_chain(s, p, /*fused=*/true);

  std::vector<std::string> names;
  for (const auto& ph : stats.phases) names.push_back(ph.name);
  const std::vector<std::string> want{"euler_step", "hypervis_dp2",
                                      "biharmonic_dp3d", "vertical_remap",
                                      "writeback"};
  EXPECT_EQ(names, want);
  double phase_seconds = 0.0;
  for (const auto& ph : stats.phases) {
    EXPECT_GT(ph.cycles, 0.0) << ph.name;
    phase_seconds += ph.seconds;
  }
  // Phases partition the fused launch (modulo spawn overhead).
  EXPECT_LE(phase_seconds, stats.seconds);
}

TEST(KernelPipeline, FreshGroupStartsCold) {
  ChainSetup s(8, 32, 4);
  homme::State p = s.base;
  accel::StateBlocks blocks;
  blocks.refill(s.d, p, p);
  sw::CoreGroup cg;
  accel::EulerKernel k(blocks, s.geo, s.derived);
  const auto stats = accel::KernelPipeline({&k}).run(cg);
  EXPECT_EQ(stats.totals.dma_reused_bytes, 0u);
  EXPECT_GT(stats.totals.dma_cold_bytes, 0u);
}

TEST(KernelPipeline, PinnedDvvPersistsAcrossLaunches) {
  ChainSetup s(8, 32, 4);
  homme::State p = s.base;
  accel::StateBlocks blocks;
  blocks.refill(s.d, p, p);
  sw::CoreGroup cg;
  accel::EulerKernel k(blocks, s.geo, s.derived);
  (void)accel::KernelPipeline({&k}).run(cg);
  const auto second = accel::KernelPipeline({&k}).run(cg);
  // The GLL derivative matrix stays pinned in each CPE's LDM between
  // launches on the same group, so the second launch opens with hits.
  EXPECT_GT(second.totals.dma_reused_bytes, 0u);
}

TEST(KernelPipeline, FusedPhysicsSuiteReusesResidentColumns) {
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::Dims d;
  d.nlev = 32;
  d.qsize = 1;
  const phys::PhysicsDriver pd(mesh, d);
  phys::PackedColumns p;
  pd.pack(scenario::aquaplanet_init_spec().build(mesh, d), p);
  sw::CoreGroup cg;
  const auto stats = accel::physics_athread(cg, p, pd.config(), 1800.0);
  // Scheme 1 stages each column's six arrays; schemes 2-4 run out of
  // LDM, so well over half the requested bytes never touch the DMA.
  EXPECT_GT(stats.reuse_fraction(), 0.5);
}

TEST(PipelineAccelerator, RemapMatchesHostRemap) {
  homme::Dims d;
  d.nlev = 16;
  d.qsize = 3;
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::State host = homme::baroclinic(mesh, d);
  homme::State offload = host;

  homme::vertical_remap_local(d, host);
  accel::PipelineAccelerator pa(d);
  pa.vertical_remap(offload);

  // The CPE port takes homme's remap target and column plans: bitwise.
  EXPECT_EQ(accel::state_max_rel_diff(host, offload), 0.0);
  EXPECT_EQ(pa.launches(), 1);
  EXPECT_GT(pa.last_stats().totals.total_dma_bytes(), 0u);
}

TEST(PipelineAccelerator, WarmRemapReusesItsShardImages) {
  // offload-remap's shape: ne6, 32 levels, 4 tracers on 4 core groups.
  homme::Dims d;
  d.nlev = 32;
  d.qsize = 4;
  auto mesh = mesh::CubedSphere::build(6, mesh::kEarthRadius);
  homme::State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);
  accel::PipelineAccelerator pa(d);
  pa.set_cg_pool(std::make_shared<sw::CgPool>(4), {0, 1, 2, 3});
  pa.vertical_remap(s);  // cold: sizes the shard images
  alloc_counter::arm();
  pa.vertical_remap(s);
  alloc_counter::disarm();
  // One shard's packed tracer mass (54 elements): 0.88 MB.
  const std::size_t shard_qdp = static_cast<std::size_t>(mesh.nelem() / 4) *
                                static_cast<std::size_t>(d.qsize) *
                                d.field_size() * sizeof(double);
  EXPECT_LT(alloc_counter::bytes(), shard_qdp);
  EXPECT_EQ(pa.launches(), 2);
  EXPECT_EQ(pa.fallbacks(), 0);
}

TEST(PipelineAccelerator, ForkedStateKeepsItsBitsAcrossRemaps) {
  // The first remap reads the chunks a fork shares and swaps fresh ones
  // into the state; the second writes the spares, which are those shared
  // chunks, so it must un-share them first.
  homme::Dims d;
  d.nlev = 16;
  d.qsize = 3;
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);
  const homme::State fork = s;
  const homme::State before = state_helpers::deep_copy(s);
  accel::PipelineAccelerator pa(d);
  pa.set_cg_pool(std::make_shared<sw::CgPool>(2), {0, 1});
  for (int remap = 0; remap < 2; ++remap) {
    // Deform the layers so each remap does real work.
    for (homme::ElementState& es : s) {
      auto dp = es.dp.mutable_span();
      for (std::size_t f = 0; f < dp.size(); ++f) {
        dp[f] *= 1.0 + 0.05 * std::sin(0.3 * static_cast<double>(f + remap));
      }
    }
    homme::State want = state_helpers::deep_copy(s);
    homme::vertical_remap_local(d, want);
    pa.vertical_remap(s);
    EXPECT_TRUE(state_helpers::states_bitwise_equal(s, want))
        << "remap " << remap;
    EXPECT_TRUE(state_helpers::states_bitwise_equal(fork, before))
        << "remap " << remap;
  }
  EXPECT_EQ(pa.fallbacks(), 0);
}

TEST(PipelineAccelerator, AttachedDycoreTracksHostDycore) {
  homme::Dims d;
  d.nlev = 16;
  d.qsize = 2;
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::DycoreConfig cfg;
  cfg.remap_freq = 3;

  homme::State host_s = homme::baroclinic(mesh, d);
  homme::State accel_s = host_s;

  homme::Dycore host_dc(mesh, d, cfg);
  homme::Dycore accel_dc(mesh, d, cfg);
  accel::PipelineAccelerator pa(d);
  accel_dc.attach_accelerator(&pa);

  host_dc.run(host_s, 3);
  accel_dc.run(accel_s, 3);

  EXPECT_EQ(pa.launches(), 1);  // remap_freq=3: one remap in 3 steps
  EXPECT_EQ(accel::state_max_rel_diff(host_s, accel_s), 0.0);
}

}  // namespace
