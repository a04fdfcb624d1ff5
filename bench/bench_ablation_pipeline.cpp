// Ablation for the kernel-pipeline layer: one dynamics-step chain
// (euler_step -> hypervis_dp2 -> biharmonic_dp3d -> vertical_remap) run
// as ONE fused pipeline with cross-kernel LDM residency versus the same
// four kernels as isolated launches. This isolates the section 7.3
// cross-loop reuse idea from the per-kernel wins: the fused chain must
// be bit-identical and move strictly fewer DMA bytes, because the
// element fields staged by one kernel are still home in the LDM when
// the next kernel leases them.
//
// The process aborts (exit 1) if either invariant fails, so the bench
// doubles as a hard check when run in CI.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "accel/euler_acc.hpp"
#include "accel/hypervis_acc.hpp"
#include "accel/pipeline.hpp"
#include "accel/remap_acc.hpp"
#include "accel/table1.hpp"
#include "mesh/cubed_sphere.hpp"

namespace {

struct ChainResult {
  sw::KernelStats stats;
  homme::State out;
};

struct ChainBench {
  homme::Dims d;
  homme::State base;
  accel::PackedGeometry geo;
  accel::EulerDerived derived;

  ChainBench(int nelem, int nlev, int qsize) {
    d.nlev = nlev;
    d.qsize = qsize;
    auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
    base = accel::synthetic_state(d, nelem);
    geo = accel::PackedGeometry::pack(m, nelem);
    derived = accel::EulerDerived::make(d, nelem);
  }

  ChainResult run(bool fused) const {
    ChainResult r{.stats = {}, .out = base};
    accel::StateBlocks blocks;
    blocks.refill(d, r.out, r.out);
    accel::EulerKernel euler(blocks, geo, derived);
    accel::HypervisKernel dp2(blocks, geo, accel::HvKernel::kDp2);
    accel::HypervisKernel dp3d(blocks, geo, accel::HvKernel::kBiharmDp3d);
    accel::RemapKernel remap(blocks, 0, blocks.nelem());
    const std::vector<const accel::Kernel*> chain{&euler, &dp2, &dp3d,
                                                  &remap};
    if (fused) {
      sw::CoreGroup cg;
      r.stats = accel::KernelPipeline(chain).run(cg);
    } else {
      for (const accel::Kernel* k : chain) {
        sw::CoreGroup cg;  // fresh group: no residency carries over
        const auto s = accel::KernelPipeline({k}).run(cg);
        r.stats.cycles += s.cycles;
        r.stats.seconds += s.seconds;
        r.stats.totals += s.totals;
      }
    }
    return r;
  }
};

void print_ablation() {
  std::printf("\n=== Ablation: fused kernel pipeline vs isolated launches "
              "(euler -> hypervis_dp2 -> biharmonic_dp3d -> remap) ===\n");
  std::printf("%-22s %13s %13s %12s %9s %10s\n", "shape (ne,nlev,q)",
              "isolated MB", "fused MB", "fused/iso", "reuse", "ldm peak");
  bool ok = true;
  for (auto [nelem, nlev, qsize] :
       {std::tuple{8, 32, 6}, std::tuple{16, 64, 8}, std::tuple{16, 64, 25}}) {
    ChainBench cb(nelem, nlev, qsize);
    const auto iso = cb.run(/*fused=*/false);
    const auto fus = cb.run(/*fused=*/true);

    const double diff = accel::state_max_rel_diff(iso.out, fus.out);
    const auto iso_b = iso.stats.totals.total_dma_bytes();
    const auto fus_b = fus.stats.totals.total_dma_bytes();
    char shape[32];
    std::snprintf(shape, sizeof shape, "(%d,%d,%d)", nelem, nlev, qsize);
    std::printf("%-22s %13.3f %13.3f %11.1f%% %8.1f%% %9zu\n", shape,
                iso_b / 1e6, fus_b / 1e6,
                100.0 * static_cast<double>(fus_b) /
                    static_cast<double>(iso_b),
                100.0 * fus.stats.reuse_fraction(),
                static_cast<std::size_t>(fus.stats.totals.ldm_peak_bytes));

    if (diff != 0.0) {
      std::fprintf(stderr, "FAIL %s: fused chain diverges from isolated "
                           "(max rel diff %.3e)\n", shape, diff);
      ok = false;
    }
    if (fus_b >= iso_b || fus.stats.totals.dma_reused_bytes == 0) {
      std::fprintf(stderr, "FAIL %s: fused chain must move strictly fewer "
                           "bytes (isolated %llu, fused %llu, reused %llu)\n",
                   shape, static_cast<unsigned long long>(iso_b),
                   static_cast<unsigned long long>(fus_b),
                   static_cast<unsigned long long>(
                       fus.stats.totals.dma_reused_bytes));
      ok = false;
    }
  }
  std::printf("paper (section 7.3): cross-loop LDM residency cuts the "
              "Athread port's transfer volume; fused results bit-identical "
              "to isolated launches\n\n");
  if (!ok) std::exit(1);
}

void BM_Chain(benchmark::State& state) {
  const bool fused = state.range(0) == 1;
  ChainBench cb(16, 64, 8);
  double mb = 0.0;
  for (auto _ : state) {
    const auto r = cb.run(fused);
    state.SetIterationTime(r.stats.seconds);
    mb = r.stats.totals.total_dma_bytes() / 1e6;
  }
  state.counters["dma_MB"] = mb;
}
BENCHMARK(BM_Chain)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("fused")
    ->UseManualTime()
    ->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  // Accept the shared bench flags uniformly; nothing here is
  // size-dependent yet, but the flags must not reach gbench.
  (void)bench::BenchOptions::parse(argc, argv);
  print_ablation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
