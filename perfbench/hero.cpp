#include <sched.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/accel_driver.hpp"
#include "perfbench.hpp"
#include "model/session.hpp"
#include "scenario/registry.hpp"

/// \file hero.cpp
/// The three hero workloads: one model::Session stepped back to back by
/// one caller (a closed loop).
///
///   climate-physics  aquaplanet, ne8, 16 levels, 2 tracers, full physics
///   offload-remap    baroclinic-wave, ne6, 32 levels, 4 tracers, pipeline
///                    backend, remap every step, 4 private core groups
///   rank-exchange    baroclinic-wave, ne8, 16 levels, 2 tracers, 2
///                    mini-MPI ranks, overlap exchange, one CPU

namespace perfbench {
namespace {

using Backend = model::SessionConfig::Backend;

/// Steps after which the state is digested for the replay checks (a
/// multiple of every remap cadence used here).
constexpr int kCheckStep = 12;
/// Timed steps a run needs at least: ten samples above the run's p90, and
/// three whole 30-step blocks for run.py's block medians.
constexpr std::size_t kMinSteps = 100;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;

struct HeroShape {
  std::string scenario;
  scenario::Overrides ov;
  /// Run the whole process on one CPU. On a shared VM, ranks on separate
  /// vCPUs wait on every blocked receive for the peer's vCPU to be woken
  /// or handed back by the hypervisor, which swung the 2-rank step time
  /// 2.5x between runs; on one CPU the ranks hand over to each other and
  /// the run measures the parallel path's total work.
  bool one_cpu = false;
};

/// Restrict this thread, and the threads it starts later, to the highest
/// CPU it may run on.
void pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (CPU_ISSET(c, &set)) {
      CPU_ZERO(&set);
      CPU_SET(c, &set);
      break;
    }
  }
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

HeroShape shape_of(const std::string& workload) {
  HeroShape sh;
  if (workload == "climate-physics") {
    sh.scenario = "aquaplanet";
    sh.ov.ne = 8;
    sh.ov.nlev = 16;
    sh.ov.qsize = 2;
  } else if (workload == "offload-remap") {
    sh.scenario = "baroclinic-wave";
    sh.ov.ne = 6;
    sh.ov.nlev = 32;
    sh.ov.qsize = 4;
    sh.ov.backend = Backend::kPipeline;
    sh.ov.remap_freq = 1;
    sh.ov.core_groups = 4;
  } else if (workload == "rank-exchange") {
    sh.scenario = "baroclinic-wave";
    sh.ov.ne = 8;
    sh.ov.nlev = 16;
    sh.ov.qsize = 2;
    sh.ov.nranks = 2;
    sh.one_cpu = true;
  } else {
    throw std::invalid_argument("unknown hero workload " + workload);
  }
  return sh;
}

/// The workload's config with its seeded initial condition: the aquaplanet
/// member gets a seeded temperature-perturbation magnitude, the
/// baroclinic wave a seeded longitude for its perturbation bump.
model::SessionConfig make_config(const HeroShape& sh, std::uint64_t seed) {
  Rng rng(seed);
  model::SessionConfig cfg = scenario::get(sh.scenario).config(sh.ov, 1);
  if (sh.scenario == "aquaplanet") {
    cfg.init_spec.perturb = 1e-10 * static_cast<double>(1 + rng.next() % 10);
  } else {
    cfg.init_spec = scenario::InitSpec::baroclinic(
        /*with_tracers=*/true, 20.0, 300.0, 2.0,
        /*lon0=*/2.0 * std::numbers::pi * rng.uniform());
  }
  return cfg;
}

/// Per-field max |a - b| over max |a|, maximized over the prognostics.
double state_rel_diff(const homme::State& a, const homme::State& b) {
  double worst = 0.0;
  auto field = [&](auto get) {
    double diff = 0.0, scale = 0.0;
    for (std::size_t e = 0; e < a.size(); ++e) {
      const auto x = get(a[e]);
      const auto y = get(b[e]);
      for (std::size_t i = 0; i < x.size(); ++i) {
        diff = std::max(diff, std::abs(x[i] - y[i]));
        scale = std::max(scale, std::abs(x[i]));
      }
    }
    worst = std::max(worst, scale > 0.0 ? diff / scale : diff);
  };
  field([](const homme::ElementState& s) { return s.u1.span(); });
  field([](const homme::ElementState& s) { return s.u2.span(); });
  field([](const homme::ElementState& s) { return s.T.span(); });
  field([](const homme::ElementState& s) { return s.dp.span(); });
  field([](const homme::ElementState& s) { return s.qdp.span(); });
  return worst;
}

/// Build a session and take its warm-up step: the set-up being timed.
std::unique_ptr<model::Session> set_up(const scenario::Scenario& sc,
                                       const model::SessionConfig& cfg) {
  auto s = std::make_unique<model::Session>(cfg);
  scenario::fire_forcing(sc, *s, 0);
  s->step();
  scenario::fire_forcing(sc, *s, s->step_count());
  s->maybe_checkpoint();
  return s;
}

/// Step \p s \p n times back to back, recording each Session::step's
/// wall time.
std::vector<double> step_n(const scenario::Scenario& sc, model::Session& s,
                           int n) {
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    const double t0 = now_s();
    s.step();
    out.push_back(now_s() - t0);
    scenario::fire_forcing(sc, s, s.step_count());
    s.maybe_checkpoint();
  }
  return out;
}

/// A fresh session of \p cfg stepped to kCheckStep (untimed replay).
homme::State replay(const scenario::Scenario& sc,
                    const model::SessionConfig& cfg) {
  auto s = set_up(sc, cfg);
  step_n(sc, *s, kCheckStep - s->step_count());
  return s->state();
}

/// Tracing off: the end-to-end run.
void run_untraced(const Args& args, const HeroShape& sh, JsonOut& out,
                  Outcome& outcome) {
  const scenario::Scenario& sc = scenario::get(sh.scenario);
  const model::SessionConfig cfg = make_config(sh, args.seed);

  std::vector<double> setup_s;
  std::unique_ptr<model::Session> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    const double t0 = now_s();
    s = set_up(sc, cfg);
    setup_s.push_back(now_s() - t0);
  }
  const double mass0 = s->diagnose().dry_mass;

  // Per step: its Session::step wall time, and the window's wall and CPU
  // clocks at the end of its loop iteration (run.py cuts these into
  // blocks of consecutive steps).
  Window w;
  std::vector<double> step_s, end_wall_s, end_cpu_s;
  std::uint32_t check_digest = 0;
  homme::State check_state;
  w.start();
  try {
    while (step_s.size() < kMinSteps || w.elapsed() < args.seconds) {
      const double t0 = now_s();
      s->step();
      step_s.push_back(now_s() - t0);
      scenario::fire_forcing(sc, *s, s->step_count());
      s->maybe_checkpoint();
      if (s->step_count() == kCheckStep) {
        w.stop();
        check_state = s->state();
        check_digest = model::state_digest(check_state, kCheckStep);
        w.start();
      }
      end_wall_s.push_back(w.elapsed());
      end_cpu_s.push_back(w.cpu_elapsed());
    }
  } catch (const std::exception& e) {
    ++outcome.failed;
    outcome.check(false, std::string("step threw: ") + e.what());
  }
  w.stop();
  const long rss_kb = peak_rss_kb();
  outcome.attempted = static_cast<std::int64_t>(step_s.size()) + outcome.failed;

  // Output checks, untimed.
  const auto why = scenario::check_invariants(sc, *s);
  outcome.check(!why, "invariant violated: " + why.value_or(""));
  const double mass1 = s->diagnose().dry_mass;
  const double mass_rel = std::abs(mass1 - mass0) / mass0;
  outcome.check(mass_rel <= 1e-9,
                "dry mass drifted by " + std::to_string(mass_rel));
  const homme::State again = replay(sc, cfg);
  const std::uint32_t replay_digest = model::state_digest(again, kCheckStep);
  outcome.check(replay_digest == check_digest,
                "step-" + std::to_string(kCheckStep) +
                    " digest differs between two runs of one build");
  double host_diff = 0.0;
  if (cfg.backend == Backend::kPipeline) {
    model::SessionConfig host_cfg = cfg;
    host_cfg.backend = Backend::kHost;
    host_diff = state_rel_diff(replay(sc, host_cfg), check_state);
    outcome.check(host_diff <= 1e-9, "pipeline and host replay differ by " +
                                         std::to_string(host_diff));
    outcome.check(s->fallbacks() == 0,
                  std::to_string(s->fallbacks()) + " host fallbacks");
  }

  out.numbers("setup_s", setup_s)
      .numbers("step_s", step_s)
      .numbers("step_end_wall_s", end_wall_s)
      .numbers("step_end_cpu_s", end_cpu_s)
      .num("dt", s->dt())
      .num("window_wall_s", w.wall())
      .num("window_cpu_s", w.cpu())
      .num("sim_s", static_cast<double>(step_s.size()) * s->dt())
      .integer("peak_rss_kb", rss_kb)
      .num("dry_mass_rel", mass_rel)
      .num("host_replay_rel_diff", host_diff)
      .integer("check_digest", check_digest)
      .integer("final_step", s->step_count())
      .integer("final_digest", model::state_digest(s->state(), s->step_count()));
}

/// Accumulated modeled-clock stats of the offloaded remaps of a run.
struct SwTotals {
  double modeled_s = 0.0;
  std::uint64_t launches = 0;
};

/// Tracing on: the per-layer split.
void run_traced(const Args& args, const HeroShape& sh, JsonOut& out,
                Outcome& outcome) {
  const scenario::Scenario& sc = scenario::get(sh.scenario);
  const model::SessionConfig cfg = make_config(sh, args.seed);
  constexpr std::size_t kMinTracedSteps = 30;
  // Steps per round: whole remap cycles of every workload here, so every
  // round does the same work.
  constexpr int kRoundSteps = 12;

  // The untraced twin is the reference for the tracing overhead, and a
  // one-rank session of the same shape the reference for the rank
  // speed-up. They step in rounds alternating with the traced session, so
  // that all three see the same host conditions.
  auto twin = set_up(sc, cfg);
  std::unique_ptr<model::Session> one_rank_twin;
  if (cfg.nranks > 1) {
    model::SessionConfig one = cfg;
    one.nranks = 1;
    one_rank_twin = set_up(sc, one);
  }
  std::vector<double> untraced, one_rank;

  obs::Tracer bench(obs::ClockDomain::kWall);
  bench.enable();
  bench.set_label("perfbench");
  bench.set_pid_offset(1000);
  obs::Track& trk = bench.track("bench", 0, 0);

  model::SessionConfig tcfg = cfg;
  tcfg.with_trace(true, obs::ClockDomain::kWall);
  trk.begin("bench:mesh_bundle");
  auto bundle = model::MeshBundle::build(tcfg.ne, tcfg.nranks, tcfg.radius);
  trk.end();
  trk.begin("bench:session_build");
  model::Session s(tcfg, bundle);
  trk.end();
  scenario::fire_forcing(sc, s, 0);
  s.step();  // warm-up, excluded from the split below
  scenario::fire_forcing(sc, s, s.step_count());
  s.maybe_checkpoint();
  const double mass0 = s.diagnose().dry_mass;
  s.tracer().reset();

  auto* pa = dynamic_cast<accel::PipelineAccelerator*>(s.accelerator());
  SwTotals sw;
  std::vector<double> traced;
  double window_s = 0.0;  // wall time of the traced rounds
  const double t_end = now_s() + args.seconds;
  try {
    while (traced.size() < kMinTracedSteps || now_s() < t_end) {
      const std::vector<double> u = step_n(sc, *twin, kRoundSteps);
      untraced.insert(untraced.end(), u.begin(), u.end());
      if (one_rank_twin != nullptr) {
        const std::vector<double> o = step_n(sc, *one_rank_twin, kRoundSteps);
        one_rank.insert(one_rank.end(), o.begin(), o.end());
      }
      const double w0 = now_s();
      for (int i = 0; i < kRoundSteps; ++i) {
        const int launches_before = pa != nullptr ? pa->launches() : 0;
        const double t0 = now_s();
        trk.begin("bench:step");
        s.step();
        trk.end();
        traced.push_back(now_s() - t0);
        trk.begin("bench:forcing");
        scenario::fire_forcing(sc, s, s.step_count());
        trk.end();
        trk.begin("bench:checkpoint");
        s.maybe_checkpoint();
        trk.end();
        if (pa != nullptr && pa->launches() != launches_before) {
          sw.modeled_s += pa->last_stats().seconds;
          sw.launches +=
              static_cast<std::uint64_t>(pa->launches() - launches_before);
        }
      }
      window_s += now_s() - w0;
    }
  } catch (const std::exception& e) {
    ++outcome.failed;
    outcome.check(false, std::string("step threw: ") + e.what());
  }
  outcome.attempted = static_cast<std::int64_t>(traced.size()) + outcome.failed;
  const obs::Summary session_summary = s.summary();
  const obs::Summary bench_summary = bench.summary();

  const auto why = scenario::check_invariants(sc, s);
  outcome.check(!why, "invariant violated: " + why.value_or(""));
  const double mass_rel = std::abs(s.diagnose().dry_mass - mass0) / mass0;
  outcome.check(mass_rel <= 1e-9,
                "dry mass drifted by " + std::to_string(mass_rel));

  std::vector<obs::Tracer*> tracers{&bench, &s.tracer()};
  s.tracer().set_label("model");
  const std::string trace_path = args.out_dir + "/trace.json";
  outcome.check(obs::write_chrome_trace(trace_path, tracers),
                "cannot write " + trace_path);

  out.integer("steps", static_cast<std::int64_t>(traced.size()))
      .integer("nranks", cfg.nranks)
      .boolean("physics", cfg.physics)
      .num("dt", s.dt())
      .num("window_wall_s", window_s)
      .numbers("untraced_step_s", untraced)
      .numbers("traced_step_s", traced)
      .numbers("one_rank_step_s", one_rank)
      .integer("fallbacks", s.fallbacks())
      .begin_object("sw")
      .num("modeled_s", sw.modeled_s)
      .integer("launches", static_cast<std::int64_t>(sw.launches))
      .end_object()
      .raw("bench_phases", phases_json(bench_summary))
      .raw("session_phases", phases_json(session_summary))
      .str("trace_path", trace_path);
}

}  // namespace

void run_hero(const Args& args, JsonOut& out, Outcome& outcome) {
  const HeroShape sh = shape_of(args.workload);
  if (sh.one_cpu) pin_to_one_cpu();
  if (args.trace) {
    run_traced(args, sh, out, outcome);
  } else {
    run_untraced(args, sh, out, outcome);
  }
}

}  // namespace perfbench
