// Multi-core-group sharding sweep: one sequential pipeline-backend
// model::Session stepped at 1 / 2 / 4 core groups behind one shared
// memory controller (sw::CgPool). The remap arithmetic is per-element
// independent, so every width must produce a bit-identical final state;
// what changes is the modeled offload time — N groups divide the element
// work but contend for the controller, so the speedup must land strictly
// between 1x and the ideal Nx.
//
// Gates (exit 1 on violation):
//   - every sweep digest equals the 1-CG digest
//   - modeled speedup at the widest sweep point is > 1x and < ideal Nx
//
// Flags (bench_common.hpp): --json --trace --small --steps --ne
//   --core-groups N   widest sweep point (default 4)

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "accel/accel_driver.hpp"
#include "bench_common.hpp"
#include "model/session.hpp"
#include "obs/report.hpp"
#include "sw/cg_pool.hpp"
#include "sw/contention.hpp"

namespace {

struct SweepPoint {
  int core_groups = 0;
  std::uint32_t digest = 0;
  double modeled_s = 0.0;  ///< summed accel offload seconds over the run
  double speedup = 1.0;    ///< modeled_s(1 CG) / modeled_s
  int launches = 0;
  int fallbacks = 0;
  int stream_high_water = 0;
  std::uint64_t contended_ops = 0;
  std::uint64_t contended_bytes = 0;
  double slowdown = 1.0;         ///< modeled per-stream inflation at this width
  double per_cg_gbytes_s = 0.0;  ///< modeled per-CG bandwidth at this width
};

model::SessionConfig sweep_config(int ne, int cgs) {
  // remap_freq 1 puts one offloaded remap in every step — the densest
  // possible contention signal per simulated second.
  return model::SessionConfig{}
      .with_ne(ne)
      .with_levels(8, 2)
      .with_remap_freq(1)
      .with_backend(model::SessionConfig::Backend::kPipeline)
      .with_core_groups(cgs);
}

SweepPoint run_sweep_point(int ne, int steps, int cgs,
                           const std::string& trace_path) {
  model::SessionConfig cfg = sweep_config(ne, cgs);
  if (!trace_path.empty()) cfg.with_trace(true);
  model::Session session(cfg);
  auto* pa = dynamic_cast<accel::PipelineAccelerator*>(session.accelerator(0));

  SweepPoint pt;
  pt.core_groups = cgs;
  int seen = 0;
  for (int i = 0; i < steps; ++i) {
    session.step();
    if (pa != nullptr && pa->launches() > seen) {
      pt.modeled_s += pa->last_stats().seconds;
      seen = pa->launches();
    }
  }
  pt.digest = model::state_digest(session.state(), session.step_count());
  if (pa != nullptr) {
    pt.launches = pa->launches();
    pt.fallbacks = pa->fallbacks();
    const sw::MemoryContention::Stats mc = pa->cg_pool()->contention().stats();
    pt.stream_high_water = mc.stream_high_water;
    pt.contended_ops = mc.contended_ops;
    pt.contended_bytes = mc.contended_bytes;
  }
  pt.slowdown = sw::MemoryContention::slowdown(cgs);
  pt.per_cg_gbytes_s = sw::MemoryContention::per_stream_bandwidth(cgs) / 1e9;
  if (!trace_path.empty() &&
      !session.tracer().write_chrome_trace(trace_path)) {
    std::fprintf(stderr, "multicg: cannot write trace %s\n",
                 trace_path.c_str());
  }
  return pt;
}

// -- reporting ---------------------------------------------------------------

int digest_mismatches(const std::vector<SweepPoint>& sweep) {
  int bad = 0;
  for (const auto& pt : sweep)
    if (pt.digest != sweep.front().digest) ++bad;
  return bad;
}

bool write_json(const std::string& path, int ne, int steps,
                const std::vector<SweepPoint>& sweep) {
  obs::Report rep("multicg");
  rep.config().set("ne", ne).set("steps", steps).set("nlev", 8).set("qsize",
                                                                    2);
  obs::Json& records = rep.root().arr("records");
  for (const auto& pt : sweep) {
    records.push()
        .set("core_groups", pt.core_groups)
        .set("digest", static_cast<std::int64_t>(pt.digest))
        .set("modeled_s", pt.modeled_s)
        .set("speedup", pt.speedup)
        .set("launches", pt.launches)
        .set("fallbacks", pt.fallbacks)
        .set("stream_high_water", pt.stream_high_water)
        .set("contended_ops", static_cast<std::int64_t>(pt.contended_ops))
        .set("contended_bytes",
             static_cast<std::int64_t>(pt.contended_bytes))
        .set("slowdown", pt.slowdown)
        .set("per_cg_gbytes_s", pt.per_cg_gbytes_s);
  }
  const SweepPoint& widest = sweep.back();
  rep.root()
      .set("digest_mismatches", digest_mismatches(sweep))
      .set("max_core_groups", widest.core_groups)
      .set("speedup_max_cgs", widest.speedup)
      .set("contention_slowdown_max", widest.slowdown);
  return rep.write(path);
}

void print_table(int ne, int steps, const std::vector<SweepPoint>& sweep) {
  std::printf("\n=== Multi-CG sharding: ne%d pipeline session x %d steps "
              "===\n",
              ne, steps);
  std::printf("%6s %12s %10s %10s %12s %14s %12s %10s\n", "CGs", "modeled s",
              "speedup", "slowdown", "stream_hw", "contended_ops", "GB/s/CG",
              "digest");
  for (const auto& pt : sweep)
    std::printf("%6d %12.6f %9.2fx %9.2fx %12d %14llu %12.1f %10u\n",
                pt.core_groups, pt.modeled_s, pt.speedup, pt.slowdown,
                pt.stream_high_water,
                static_cast<unsigned long long>(pt.contended_ops),
                pt.per_cg_gbytes_s, pt.digest);
  std::printf("\n");
}

void register_benchmarks(const std::vector<SweepPoint>& sweep) {
  for (const auto& pt : sweep) {
    const double s = pt.modeled_s;
    const double speedup = pt.speedup;
    auto* b = benchmark::RegisterBenchmark(
        ("multicg/core_groups:" + std::to_string(pt.core_groups)).c_str(),
        [s, speedup](benchmark::State& state) {
          for (auto _ : state) state.SetIterationTime(s);
          state.counters["speedup"] = speedup;
        });
    b->UseManualTime()->Iterations(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::BenchOptions::parse(argc, argv);
  const int ne = opts.ne_or(4);
  const int steps = opts.steps_or(opts.small ? 3 : 6);
  const int max_cgs = opts.core_groups_or(4);

  std::vector<int> widths;
  for (int w = 1; w <= max_cgs; w *= 2) widths.push_back(w);
  if (widths.back() != max_cgs) widths.push_back(max_cgs);

  std::vector<SweepPoint> sweep;
  for (int w : widths) {
    // The widest point carries the --trace timeline (per-CG tracks).
    const bool last = w == widths.back();
    sweep.push_back(
        run_sweep_point(ne, steps, w, last ? opts.trace_path : ""));
    sweep.back().speedup =
        sweep.back().modeled_s > 0.0
            ? sweep.front().modeled_s / sweep.back().modeled_s
            : 1.0;
  }
  print_table(ne, steps, sweep);

  bool ok = true;
  if (digest_mismatches(sweep) != 0) {
    std::fprintf(stderr,
                 "FAIL: sharded digests differ from the 1-CG digest\n");
    ok = false;
  }
  const SweepPoint& widest = sweep.back();
  if (widest.core_groups > 1 && widest.speedup <= 1.0) {
    std::fprintf(stderr, "FAIL: %d-CG speedup %.3fx is not > 1x\n",
                 widest.core_groups, widest.speedup);
    ok = false;
  }
  if (widest.speedup >= static_cast<double>(widest.core_groups)) {
    std::fprintf(stderr,
                 "FAIL: %d-CG speedup %.3fx reached the contention-free "
                 "ideal %dx\n",
                 widest.core_groups, widest.speedup, widest.core_groups);
    ok = false;
  }

  if (!opts.json_path.empty() &&
      !write_json(opts.json_path, ne, steps, sweep)) {
    return 1;
  }
  if (!ok) return 1;

  register_benchmarks(sweep);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
