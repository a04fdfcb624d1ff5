// Ablation for the section 7.6 claims: the redesigned bndry_exchangev
// (a) overlaps computation with communication, cutting dycore time by up
// to 23% in large runs, and (b) removes the pack-buffer staging copies,
// another ~30%. Functional copy counters come from the real distributed
// implementation; machine-scale time deltas from the analytic model.
//
// No wall-clock comm share is reported: the mini-MPI delivers a message
// at its send, so the share of a step spent waiting measures how the host
// schedules the two rank threads, not the exchange mode.
//
// Flags: --trace <path> captures a Chrome trace of one full distributed
// dycore step in each mode on 2 ranks — side by side in one file via the
// tracer pid offsets. The overlap mode is the only one that shows
// bndry:inner_compute (the rank's accumulation running while the sends
// posted in bndry:post_send are in flight); the original mode instead
// serializes bndry:compute before bndry:send. --json <path> dumps the per-phase
// attribution of those traced steps.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "homme/bndry.hpp"
#include "model/session.hpp"
#include "obs/report.hpp"
#include "perf/machine_model.hpp"

namespace {

/// The two traced sessions stay alive until their wall-domain tracers are
/// merged into one exported file; labels / pid offsets keep the modes
/// apart there.
std::unique_ptr<model::Session> g_sess_original;
std::unique_ptr<model::Session> g_sess_overlap;

struct ModeAttribution {
  const char* mode;
  double step_us = 0.0;          ///< summed dyn:step over both ranks
  double wait_us = 0.0;          ///< bndry:wait_unpack (recv + unpack)
  double send_us = 0.0;          ///< bndry:send or bndry:post_send
  double inner_us = 0.0;         ///< bndry:inner_compute (overlap only)
  std::uint64_t inner_count = 0; ///< 0 in the original mode by design
};

/// The traced steps' shape.
constexpr int kTracedNe = 2, kTracedLevels = 8;

/// A 2-rank session of exchange mode \p mode, 2 tracers, traced on the
/// wall clock, remapping every step (so each step exercises dyn:remap).
std::unique_ptr<model::Session> make_session(homme::BndryExchange::Mode mode) {
  return std::make_unique<model::Session>(
      model::SessionConfig{}
          .with_ne(kTracedNe)
          .with_levels(kTracedLevels, 2)
          .with_ranks(2)
          .with_exchange(mode)
          .with_remap_freq(1)
          .with_trace(true, obs::ClockDomain::kWall));
}

/// The section 7.6 attribution off a session's trace summary.
ModeAttribution attribute(const char* label, const obs::Summary& sum) {
  ModeAttribution a;
  a.mode = label;
  a.step_us = obs::phase_total_us(sum, "dyn:step");
  a.wait_us = obs::phase_total_us(sum, "bndry:wait_unpack");
  a.send_us = obs::phase_total_us(sum, "bndry:send") +
              obs::phase_total_us(sum, "bndry:post_send");
  a.inner_us = obs::phase_total_us(sum, "bndry:inner_compute");
  a.inner_count = obs::phase_count(sum, "bndry:inner_compute");
  return a;
}

/// One full distributed model::Session step on 2 ranks with every layer
/// reporting into the session's tracer, then its attribution. The session
/// outlives the call via \p slot, for the Chrome trace.
ModeAttribution run_traced_step(std::unique_ptr<model::Session>& slot,
                                const char* label, int pid_offset,
                                homme::BndryExchange::Mode mode) {
  slot = make_session(mode);
  slot->tracer().set_label(label);
  slot->tracer().set_pid_offset(pid_offset);
  slot->step();
  return attribute(label, slot->summary());
}

void print_attribution(const ModeAttribution& a) {
  std::printf("%-10s %12.0f %12.0f %12.0f %12.0f %6llu\n", a.mode, a.step_us,
              a.wait_us, a.send_us, a.inner_us,
              static_cast<unsigned long long>(a.inner_count));
}

void print_copy_ablation() {
  auto m = mesh::CubedSphere::build(4, mesh::kEarthRadius);
  auto part = mesh::Partition::build(m, 6);
  auto plan = mesh::CommPlan::build(m, part);
  const int nlev = 16;

  std::printf("\n=== Ablation (section 7.6b): pack-buffer copies in "
              "bndry_exchangev, 6 ranks, ne4, 16 levels ===\n");
  std::size_t copies[2] = {0, 0}, msgs[2] = {0, 0};
  net::Cluster cluster(6);
  std::mutex mu;
  int mode_idx = 0;
  for (auto mode : {homme::BndryExchange::Mode::kOriginal,
                    homme::BndryExchange::Mode::kOverlap}) {
    cluster.run([&](net::Rank& r) {
      homme::BndryExchange bx(m, part, plan, r.rank());
      std::vector<std::vector<double>> local(
          static_cast<std::size_t>(bx.nlocal()));
      std::vector<double*> ptrs(static_cast<std::size_t>(bx.nlocal()));
      for (int le = 0; le < bx.nlocal(); ++le) {
        local[static_cast<std::size_t>(le)].assign(
            static_cast<std::size_t>(nlev) * mesh::kNpp,
            1.0 + le + r.rank());
        ptrs[static_cast<std::size_t>(le)] =
            local[static_cast<std::size_t>(le)].data();
      }
      bx.dss_levels(ptrs, nlev, &r, mode);
      std::lock_guard<std::mutex> lock(mu);
      copies[mode_idx] += bx.last_copy_bytes();
      msgs[mode_idx] += bx.last_msg_bytes();
    });
    ++mode_idx;
  }
  std::printf("original (pack-buffer): %8.1f KB staged copies, %8.1f KB MPI\n",
              copies[0] / 1e3, msgs[0] / 1e3);
  std::printf("redesign (direct):      %8.1f KB staged copies, %8.1f KB MPI\n",
              copies[1] / 1e3, msgs[1] / 1e3);
  std::printf("copy reduction: %.0f%% (paper: removing the redundant copies "
              "cut dycore time ~30%%)\n",
              100.0 * (1.0 - static_cast<double>(copies[1]) /
                                 static_cast<double>(copies[0])));
}

void print_overlap_ablation() {
  const auto m = perf::MachineModel::calibrate(128, 25, 32);
  std::printf("\n=== Ablation (section 7.6a): computation/communication "
              "overlap at machine scale ===\n");
  std::printf("%-8s %10s %16s %16s %10s\n", "case", "procs", "no-overlap s",
              "overlap s", "saved");
  for (auto [ne, p] : {std::pair{256, 32768LL}, std::pair{1024, 32768LL},
                       std::pair{1024, 131072LL}}) {
    const auto off = m.dycore_step(ne, p, perf::Version::kAthread, false);
    const auto on = m.dycore_step(ne, p, perf::Version::kAthread, true);
    std::printf("ne%-6d %10lld %16.5f %16.5f %9.1f%%\n", ne, p, off.total_s,
                on.total_s, 100.0 * (off.total_s - on.total_s) / off.total_s);
  }
  std::printf("paper: overlapping all three Euler-step halo exchanges cut "
              "HOMME runtime by 23%% in the best cases\n\n");
}

/// Wall time of one functional distributed DSS (6 ranks, both modes).
void BM_DssExchange(benchmark::State& state) {
  auto m = mesh::CubedSphere::build(3, mesh::kEarthRadius);
  auto part = mesh::Partition::build(m, 4);
  auto plan = mesh::CommPlan::build(m, part);
  const auto mode = state.range(0) == 0
                        ? homme::BndryExchange::Mode::kOriginal
                        : homme::BndryExchange::Mode::kOverlap;
  const int nlev = 8;
  net::Cluster cluster(4);
  for (auto _ : state) {
    cluster.run([&](net::Rank& r) {
      homme::BndryExchange bx(m, part, plan, r.rank());
      std::vector<std::vector<double>> local(
          static_cast<std::size_t>(bx.nlocal()));
      std::vector<double*> ptrs(static_cast<std::size_t>(bx.nlocal()));
      for (int le = 0; le < bx.nlocal(); ++le) {
        local[static_cast<std::size_t>(le)].assign(
            static_cast<std::size_t>(nlev) * mesh::kNpp, 1.0);
        ptrs[static_cast<std::size_t>(le)] =
            local[static_cast<std::size_t>(le)].data();
      }
      bx.dss_levels(ptrs, nlev, &r, mode);
    });
  }
}
BENCHMARK(BM_DssExchange)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::BenchOptions::parse(argc, argv);
  print_copy_ablation();
  print_overlap_ablation();

  const ModeAttribution orig = run_traced_step(
      g_sess_original, "original", 0, homme::BndryExchange::Mode::kOriginal);
  const ModeAttribution over = run_traced_step(
      g_sess_overlap, "overlap", 1000, homme::BndryExchange::Mode::kOverlap);
  std::printf("=== Traced step (2 ranks, ne%d, %d levels): section 7.6 "
              "span attribution ===\n",
              kTracedNe, kTracedLevels);
  std::printf("%-10s %12s %12s %12s %12s %6s\n", "mode", "step us",
              "wait us", "send us", "inner us", "#inner");
  print_attribution(orig);
  print_attribution(over);
  std::printf("(bndry:inner_compute exists only in the overlap redesign: it "
              "is the rank's accumulation running while sends are in "
              "flight)\n\n");

  if (!opts.json_path.empty()) {
    obs::Report rep("ablation_overlap");
    rep.config()
        .set("ranks", 2)
        .set("mesh_ne", kTracedNe)
        .set("nlev", kTracedLevels)
        .set("qsize", 2);
    // Per mode: the traced step's attribution.
    obs::Json& modes = rep.root().arr("modes");
    for (const ModeAttribution* a : {&orig, &over}) {
      modes.push()
          .set("mode", a->mode)
          .set("step_us", a->step_us)
          .set("wait_unpack_us", a->wait_us)
          .set("send_us", a->send_us)
          .set("inner_compute_us", a->inner_us)
          .set("inner_compute_count", a->inner_count);
    }
    if (!rep.write(opts.json_path)) return 1;
  }
  if (!opts.trace_path.empty()) {
    obs::Tracer* tracers[] = {&g_sess_original->tracer(),
                              &g_sess_overlap->tracer()};
    if (!obs::write_chrome_trace(opts.trace_path, tracers)) return 1;
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
