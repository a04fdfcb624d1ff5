// Reproduces Figure 6: whole-CAM simulation speed (SYPD) for ne30
// (100 km) with the three ports and ne120 (25 km) with the OpenACC port,
// as a function of process count. Two documented calibration anchors
// (ne30/5400/athread = 21.5 SYPD, ne120/28800/openacc = 3.4 SYPD);
// everything else is the model's prediction. perfbench's workloads are
// the wall-clock record of what a model::Session sustains on a host.

// Pass --json <path> for a machine-readable record of every plotted point.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "obs/report.hpp"
#include "perf/machine_model.hpp"

namespace {

const perf::MachineModel& model() {
  static const auto m = perf::MachineModel::calibrate(128, 25, 32);
  return m;
}

bool write_json(const std::string& path) {
  const auto& m = model();
  obs::Report rep("fig6_sypd");
  rep.config().set("nlev", 128).set("qsize", 25).set("physics_columns", 32);
  obs::Json& records = rep.root().arr("records");
  for (long long p : {216LL, 600LL, 900LL, 1350LL, 5400LL}) {
    for (auto v : {perf::Version::kOriginal, perf::Version::kOpenAcc,
                   perf::Version::kAthread}) {
      records.push()
          .set("ne", 30)
          .set("procs", static_cast<std::int64_t>(p))
          .set("version", perf::to_string(v))
          .set("sypd", m.sypd(30, p, v));
    }
  }
  for (long long p : {2400LL, 9600LL, 14400LL, 21600LL, 24000LL, 28800LL}) {
    records.push()
        .set("ne", 120)
        .set("procs", static_cast<std::int64_t>(p))
        .set("version", perf::to_string(perf::Version::kOpenAcc))
        .set("sypd", m.sypd(120, p, perf::Version::kOpenAcc));
  }
  return rep.write(path);
}

void print_figure() {
  const auto& m = model();
  std::printf("\n=== Figure 6 (left): ne30 whole-CAM SYPD ===\n");
  std::printf("%8s %10s %10s %10s\n", "procs", "ori", "openacc", "athread");
  for (long long p : {216, 600, 900, 1350, 5400}) {
    std::printf("%8lld %10.2f %10.2f %10.2f\n", p,
                m.sypd(30, p, perf::Version::kOriginal),
                m.sypd(30, p, perf::Version::kOpenAcc),
                m.sypd(30, p, perf::Version::kAthread));
  }
  std::printf("paper: 21.5 SYPD at 5400 processes (athread)\n");
  std::printf("\n=== Figure 6 (right): ne120 whole-CAM SYPD (openacc) ===\n");
  std::printf("%8s %10s\n", "procs", "sypd");
  for (long long p : {2400, 9600, 14400, 21600, 24000, 28800}) {
    std::printf("%8lld %10.2f\n", p, m.sypd(120, p, perf::Version::kOpenAcc));
  }
  std::printf("paper: 3.4 SYPD at 28800 processes\n\n");
}

void register_benchmarks() {
  const auto& m = model();
  for (long long p : {216LL, 5400LL}) {
    for (auto v : {perf::Version::kOriginal, perf::Version::kOpenAcc,
                   perf::Version::kAthread}) {
      const double sypd = m.sypd(30, p, v);
      auto* b = benchmark::RegisterBenchmark(
          ("ne30/" + perf::to_string(v) + "/procs:" + std::to_string(p))
              .c_str(),
          [sypd](benchmark::State& state) {
            for (auto _ : state) state.SetIterationTime(1.0 / sypd);
            state.counters["SYPD"] = sypd;
          });
      b->UseManualTime()->Iterations(1);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::BenchOptions::parse(argc, argv);
  print_figure();
  if (!opts.json_path.empty() && !write_json(opts.json_path)) return 1;
  register_benchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
