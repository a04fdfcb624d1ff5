// Reproduces Figure 8: weak scalability with 48 / 192 / 650 / 768
// elements per process. The headline point: 650 elements/process on
// 155,000 processes = 10,075,000 cores at ~3.3 PFlops, 98.5% efficiency.

// Pass --json <path> for a machine-readable record of every plotted point.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "obs/report.hpp"
#include "perf/machine_model.hpp"

namespace {

// Core groups per processor used for calibration; set once from
// --core-groups in main() before the first model() call.
int g_core_groups = 4;

const perf::MachineModel& model() {
  static const auto m = perf::MachineModel::calibrate(128, 25, 32,
                                                      g_core_groups);
  return m;
}

/// ne whose element count best matches elems_per_proc * procs.
int ne_for(long long elems_per_proc, long long procs) {
  return static_cast<int>(std::lround(
      std::sqrt(static_cast<double>(elems_per_proc * procs) / 6.0)));
}

bool write_json(const std::string& path) {
  const auto& m = model();
  obs::Report rep("fig8_weak");
  rep.config().set("nlev", 128).set("qsize", 25).set("version", "athread");
  rep.root()
      .set("contention_model", "measured")
      .set("active_cgs", m.active_cgs)
      .set("contention_slowdown", m.contention_slowdown);
  obs::Json& curve = rep.root().arr("contention_curve");
  for (const auto& pt : m.contention) {
    curve.push()
        .set("active_cgs", pt.active_cgs)
        .set("slowdown", pt.slowdown)
        .set("per_cg_gbytes_s", pt.per_cg_gbytes_s);
  }
  obs::Json& records = rep.root().arr("records");
  auto add = [&](long long epp, long long p) {
    const int ne = ne_for(epp, p);
    const auto s = m.dycore_step(ne, p, perf::Version::kAthread);
    records.push()
        .set("elems_per_proc", static_cast<std::int64_t>(epp))
        .set("procs", static_cast<std::int64_t>(p))
        .set("ne", ne)
        .set("step_s", s.total_s)
        .set("pflops", s.pflops);
  };
  for (long long epp : {48LL, 192LL, 768LL}) {
    for (long long p : {512LL, 2048LL, 8192LL, 32768LL, 131072LL}) {
      add(epp, p);
    }
  }
  add(650, 155000);  // the 10,075,000-core headline point
  return rep.write(path);
}

void print_figure() {
  const auto& m = model();
  std::printf("\n=== Figure 8: HOMME weak scaling (athread redesign) ===\n");
  std::printf("contention: measured on %d core groups, slowdown %.3fx\n",
              m.active_cgs, m.contention_slowdown);
  std::printf("%-12s %10s %8s %12s %12s\n", "elems/proc", "procs", "ne",
              "PFlops", "weak-eff");
  for (long long epp : {48LL, 192LL, 768LL}) {
    double base_rate = 0.0;
    for (long long p : {512LL, 2048LL, 8192LL, 32768LL, 131072LL}) {
      const int ne = ne_for(epp, p);
      const auto s = m.dycore_step(ne, p, perf::Version::kAthread);
      const double rate = s.pflops / static_cast<double>(p);
      if (p == 512) base_rate = rate;
      std::printf("%-12lld %10lld %8d %12.3f %11.1f%%\n", epp, p, ne,
                  s.pflops, 100.0 * rate / base_rate);
    }
  }
  {
    const long long p = 155000;
    const int ne = ne_for(650, p);
    const auto s = m.dycore_step(ne, p, perf::Version::kAthread);
    std::printf("%-12d %10lld %8d %12.3f   (10,075,000 cores)\n", 650, p, ne,
                s.pflops);
  }
  std::printf(
      "paper: 1.76 / 2.72 / 2.4 PFlops at 131072 procs (48/192/768 e/p, "
      "88-92%% eff); 3.3 PFlops at 155000 procs x 650 e/p (98.5%%)\n\n");
}

void register_benchmarks() {
  const auto& m = model();
  const auto s = m.dycore_step(ne_for(650, 155000), 155000,
                               perf::Version::kAthread);
  auto* b = benchmark::RegisterBenchmark(
      "weak/650epp/procs:155000", [s](benchmark::State& state) {
        for (auto _ : state) state.SetIterationTime(s.total_s);
        state.counters["PFlops"] = s.pflops;
      });
  b->UseManualTime()->Iterations(1);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::BenchOptions::parse(argc, argv);
  g_core_groups = opts.core_groups_or(4);
  print_figure();
  if (!opts.json_path.empty() && !write_json(opts.json_path)) return 1;
  register_benchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
