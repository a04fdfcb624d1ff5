// Reproduces Figure 7: strong scalability of the redesigned HOMME for
// ne256 (393,216 elements) and ne1024 (6,291,456 elements) from 4,096 /
// 8,192 processes up to 262,144 (266,240 to 17,039,360 cores — the
// projection extends one doubling past the paper's 131,072-process
// measurement, past 10M simulated cores).
//
// The analytic curve consumes the *measured* multi-core-group contention
// of the simulator (perf::MachineModel::calibrate runs every kernel with
// --core-groups sibling DMA streams declared on one shared memory
// controller), not an assumed intra-node figure.

// Pass --json <path> for a machine-readable record of every plotted point.

#include <benchmark/benchmark.h>

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

// One MPI process drives one core group: 1 MPE + 64 CPEs = 65 cores, the
// paper's accounting (131,072 processes = 8,519,680 cores).
constexpr long long kCoresPerProcess = 65;

bool write_json(const std::string& path) {
  const auto& m = model();
  obs::Report rep("fig7_strong");
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
  long long max_cores = 0;
  obs::Json& records = rep.root().arr("records");
  for (auto [ne, base] : {std::pair{256, 4096LL}, std::pair{1024, 8192LL}}) {
    for (long long p = base; p <= 262144; p *= 2) {
      const auto s = m.dycore_step(ne, p, perf::Version::kAthread);
      const long long cores = p * kCoresPerProcess;
      if (cores > max_cores) max_cores = cores;
      records.push()
          .set("ne", ne)
          .set("procs", static_cast<std::int64_t>(p))
          .set("cores", static_cast<std::int64_t>(cores))
          .set("step_s", s.total_s)
          .set("pflops", s.pflops)
          .set("parallel_efficiency",
               m.parallel_efficiency(ne, base, p, perf::Version::kAthread));
    }
  }
  rep.root().set("max_cores", static_cast<std::int64_t>(max_cores));
  return rep.write(path);
}

void print_figure() {
  const auto& m = model();
  std::printf("\n=== Figure 7: HOMME strong scaling (athread redesign) ===\n");
  std::printf("contention: measured on %d core groups, slowdown %.3fx "
              "(per-CG curve:",
              m.active_cgs, m.contention_slowdown);
  for (const auto& pt : m.contention)
    std::printf(" %d:%.1fGB/s", pt.active_cgs, pt.per_cg_gbytes_s);
  std::printf(")\n");
  std::printf("%-8s %10s %12s %10s %12s %14s %12s\n", "case", "procs", "cores",
              "Mcores", "PFlops", "ideal-PFlops", "par.eff");
  for (auto [ne, base] : {std::pair{256, 4096LL}, std::pair{1024, 8192LL}}) {
    const auto s0 = m.dycore_step(ne, base, perf::Version::kAthread);
    for (long long p = base; p <= 262144; p *= 2) {
      const auto s = m.dycore_step(ne, p, perf::Version::kAthread);
      const double ideal = s0.pflops * static_cast<double>(p) /
                           static_cast<double>(base);
      const long long cores = p * kCoresPerProcess;
      std::printf("ne%-6d %10lld %12lld %10.2f %12.3f %14.3f %11.1f%%\n", ne,
                  p, cores, static_cast<double>(cores) / 1.0e6, s.pflops,
                  ideal,
                  100.0 * m.parallel_efficiency(ne, base, p,
                                                perf::Version::kAthread));
    }
  }
  std::printf(
      "paper: ne256 0.07 -> 0.64 PFlops (21.7%% eff at 131072); ne1024 0.18 "
      "-> 1.76 PFlops (51%% eff); top row projects past 10M cores\n\n");
}

void register_benchmarks() {
  const auto& m = model();
  for (auto [ne, p] : {std::pair{256, 131072LL}, std::pair{1024, 131072LL}}) {
    const auto s = m.dycore_step(ne, p, perf::Version::kAthread);
    auto* b = benchmark::RegisterBenchmark(
        ("strong/ne" + std::to_string(ne) + "/procs:" + std::to_string(p))
            .c_str(),
        [s](benchmark::State& state) {
          for (auto _ : state) state.SetIterationTime(s.total_s);
          state.counters["PFlops"] = s.pflops;
        });
    b->UseManualTime()->Iterations(1);
  }
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
