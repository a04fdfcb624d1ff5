// Ablation for the section 7.3 claim: "total data transfer size has been
// decreased to 10% compared with the OpenACC solution". Sweeps the number
// of shared (non-tracer) fields the euler_step kernel touches: the more
// arrays the OpenACC collapse re-reads per tracer, the larger the
// Athread LDM-reuse win. CAM5's real euler_step shares ~15 field-sized
// arrays across ~25 tracers, which lands at the paper's ~10%.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include <cstdio>

#include "accel/euler_acc.hpp"
#include "mesh/cubed_sphere.hpp"

namespace {

void print_sweep() {
  homme::Dims d;
  d.nlev = 64;
  d.qsize = 25;
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  const homme::State base = accel::synthetic_state(d, 8);
  const auto geo = accel::PackedGeometry::pack(m, 8);
  sw::CoreGroup cg;

  std::printf("\n=== Ablation (section 7.3): euler_step DMA traffic, Athread "
              "vs OpenACC, 25 tracers ===\n");
  std::printf("%-14s %14s %14s %12s\n", "shared fields", "openacc MB",
              "athread MB", "ath/acc");
  for (int shared : {0, 2, 4, 8, 12, 16}) {
    auto derived = accel::EulerDerived::make(d, 8, shared);
    homme::State p1 = base;
    auto acc = accel::euler_openacc(cg, d, p1, geo, derived);
    homme::State p2 = base;
    auto ath = accel::euler_athread(cg, d, p2, geo, derived);
    std::printf("%-14d %14.2f %14.2f %11.1f%%\n", 3 + shared,
                acc.totals.total_dma_bytes() / 1e6,
                ath.totals.total_dma_bytes() / 1e6,
                100.0 * static_cast<double>(ath.totals.total_dma_bytes()) /
                    static_cast<double>(acc.totals.total_dma_bytes()));
  }
  std::printf("paper: traffic reduced to ~10%% with CAM's full shared-array "
              "set\n\n");
}

void BM_EulerTraffic(benchmark::State& state) {
  homme::Dims d;
  d.nlev = 32;
  d.qsize = 8;
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  const homme::State base = accel::synthetic_state(d, 8);
  const auto geo = accel::PackedGeometry::pack(m, 8);
  auto derived = accel::EulerDerived::make(d, 8);
  sw::CoreGroup cg;
  const bool athread = state.range(0) == 1;
  for (auto _ : state) {
    homme::State p = base;
    auto stats = athread ? accel::euler_athread(cg, d, p, geo, derived)
                         : accel::euler_openacc(cg, d, p, geo, derived);
    state.SetIterationTime(stats.seconds);
    state.counters["dma_MB"] =
        static_cast<double>(stats.totals.total_dma_bytes()) / 1e6;
  }
}
BENCHMARK(BM_EulerTraffic)->Arg(0)->Arg(1)->UseManualTime()->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  // Accept the shared bench flags uniformly; nothing here is
  // size-dependent yet, but the flags must not reach gbench.
  (void)bench::BenchOptions::parse(argc, argv);
  print_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
