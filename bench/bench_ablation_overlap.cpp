// Ablation for the section 7.6 claims: the redesigned bndry_exchangev
// (a) overlaps computation with communication, cutting dycore time by up
// to 23% in large runs, and (b) removes the pack-buffer staging copies,
// another ~30%. Functional copy counters come from the real distributed
// implementation; machine-scale time deltas from the analytic model.
//
// One step's comm share (exchange wait + send over the step) moves by
// more than the two modes differ from one step to the next on a shared
// host, so the comm-share table steps a session of each mode many times,
// alternating modes after a warm-up, and reports each mode's median with
// its quartiles. It measures at ne4 x 16 levels: at ne2 nearly every
// element of a rank is a boundary element, so most of a step's DSS work
// is the boundary bodies that run before the messages fly.
//
// Flags: --trace <path> captures a Chrome trace of one full distributed
// dycore step in each mode on 2 ranks — side by side in one file via the
// tracer pid offsets. The overlap mode is the only one that shows
// bndry:inner_compute (the rank's accumulation running while the sends
// posted in bndry:post_send are in flight); the original mode instead
// serializes bndry:compute before bndry:send. --json <path> dumps the per-phase
// attribution of those traced steps and the measured comm-share
// distribution of each mode.

#include <benchmark/benchmark.h>

#include <algorithm>
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
  double comm_share = 0.0;       ///< (wait+send) / step
};

/// The traced steps' shape, and the comm-share measurement's.
constexpr int kTracedNe = 2, kTracedLevels = 8;
constexpr int kMeasuredNe = 4, kMeasuredLevels = 16;
constexpr int kWarmupSteps = 10, kMeasuredSteps = 100;

/// A 2-rank session of exchange mode \p mode, 2 tracers, traced on the
/// wall clock, remapping every step (so each step exercises dyn:remap).
std::unique_ptr<model::Session> make_session(homme::BndryExchange::Mode mode,
                                             int ne, int nlev) {
  return std::make_unique<model::Session>(
      model::SessionConfig{}
          .with_ne(ne)
          .with_levels(nlev, 2)
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
  if (a.step_us > 0.0) a.comm_share = (a.wait_us + a.send_us) / a.step_us;
  return a;
}

/// One full distributed model::Session step on 2 ranks with every layer
/// reporting into the session's tracer, then its attribution. The session
/// outlives the call via \p slot, for the Chrome trace.
ModeAttribution run_traced_step(std::unique_ptr<model::Session>& slot,
                                const char* label, int pid_offset,
                                homme::BndryExchange::Mode mode) {
  slot = make_session(mode, kTracedNe, kTracedLevels);
  slot->tracer().set_label(label);
  slot->tracer().set_pid_offset(pid_offset);
  slot->step();
  return attribute(label, slot->summary());
}

/// The comm-share distribution of one mode over many steps.
struct ShareStats {
  int steps = 0;
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};

/// Quantile \p p of \p v (sorted in place), linear between ranks.
double quantile(std::vector<double>& v, double p) {
  std::sort(v.begin(), v.end());
  const double at = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (at - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Step one measured-shape session per mode kWarmupSteps times, then
/// kMeasuredSteps more times, alternating modes step by step, each on a
/// freshly reset tracer, and take each measured step's comm share.
void measure_comm_shares(ShareStats& original, ShareStats& overlap) {
  struct Side {
    std::unique_ptr<model::Session> sess;
    std::vector<double> shares;
  } sides[2] = {{make_session(homme::BndryExchange::Mode::kOriginal,
                              kMeasuredNe, kMeasuredLevels),
                 {}},
                {make_session(homme::BndryExchange::Mode::kOverlap,
                              kMeasuredNe, kMeasuredLevels),
                 {}}};
  for (int i = 0; i < kWarmupSteps + kMeasuredSteps; ++i) {
    for (Side& side : sides) {
      side.sess->tracer().reset();
      side.sess->step();
      if (i >= kWarmupSteps) {
        side.shares.push_back(attribute("", side.sess->summary()).comm_share);
      }
    }
  }
  ShareStats* out[2] = {&original, &overlap};
  for (int m = 0; m < 2; ++m) {
    std::vector<double>& v = sides[m].shares;
    out[m]->steps = static_cast<int>(v.size());
    out[m]->q1 = quantile(v, 0.25);
    out[m]->median = quantile(v, 0.5);
    out[m]->q3 = quantile(v, 0.75);
  }
}

void print_attribution(const ModeAttribution& a) {
  std::printf("%-10s %12.0f %12.0f %12.0f %12.0f %6llu %9.1f%%\n", a.mode,
              a.step_us, a.wait_us, a.send_us, a.inner_us,
              static_cast<unsigned long long>(a.inner_count),
              100.0 * a.comm_share);
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
              "comm-share attribution ===\n",
              kTracedNe, kTracedLevels);
  std::printf("%-10s %12s %12s %12s %12s %6s %10s\n", "mode", "step us",
              "wait us", "send us", "inner us", "#inner", "comm");
  print_attribution(orig);
  print_attribution(over);
  std::printf("(bndry:inner_compute exists only in the overlap redesign: it "
              "is the rank's accumulation running while sends are in "
              "flight)\n");

  ShareStats orig_share, over_share;
  measure_comm_shares(orig_share, over_share);
  std::printf("\ncomm share, 2 ranks, ne%d, %d levels: %d alternating steps "
              "per mode after %d warm-up steps\n",
              kMeasuredNe, kMeasuredLevels, kMeasuredSteps, kWarmupSteps);
  std::printf("%-10s %9s %9s %9s\n", "mode", "q1", "median", "q3");
  for (const auto& [label, st] : {std::pair{"original", &orig_share},
                                  std::pair{"overlap", &over_share}}) {
    std::printf("%-10s %8.1f%% %8.1f%% %8.1f%%\n", label, 100.0 * st->q1,
                100.0 * st->median, 100.0 * st->q3);
  }
  std::printf("\n");

  if (!opts.json_path.empty()) {
    obs::Report rep("ablation_overlap");
    rep.config()
        .set("ranks", 2)
        .set("mesh_ne", kTracedNe)
        .set("nlev", kTracedLevels)
        .set("qsize", 2)
        .set("measured_mesh_ne", kMeasuredNe)
        .set("measured_nlev", kMeasuredLevels)
        .set("warmup_steps", kWarmupSteps);
    // Per mode: the traced step's attribution, then the measured
    // comm-share distribution.
    obs::Json& modes = rep.root().arr("modes");
    for (const auto& [a, st] : {std::pair{&orig, &orig_share},
                                std::pair{&over, &over_share}}) {
      modes.push()
          .set("mode", a->mode)
          .set("step_us", a->step_us)
          .set("wait_unpack_us", a->wait_us)
          .set("send_us", a->send_us)
          .set("inner_compute_us", a->inner_us)
          .set("inner_compute_count", a->inner_count)
          .set("comm_share", a->comm_share)
          .set("comm_share_steps", st->steps)
          .set("comm_share_q1", st->q1)
          .set("comm_share_median", st->median)
          .set("comm_share_q3", st->q3);
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
