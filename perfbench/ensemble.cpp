#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <numbers>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.hpp"
#include "model/session.hpp"
#include "physics/held_suarez.hpp"
#include "scenario/registry.hpp"
#include "svc/server.hpp"

/// \file ensemble.cpp
/// The ensemble-service workload: one svc::Server with two engine
/// workers and two tenants, driven by an open loop. A seeded schedule of
/// Poisson arrivals (rate kRate) submits a fixed mix of four member
/// shapes from one generator thread; each member is timed from its
/// scheduled arrival to its terminal state.
///
/// The traced run swaps the three scenario shapes for benchmark copies
/// registered under "perfbench.<name>": same defaults, IC and invariants,
/// but tracing in the wall clock, with the forcing schedule and each
/// invariant wrapped in spans recorded into the member's own session
/// tracer. The engine attaches that tracer's summary to the member's
/// report, which is where the per-member split comes from.

namespace perfbench {
namespace {

/// Offered load, members per second: about half of what two workers
/// sustain on a 4-vCPU x86 VM (mean member run time about 0.06 s). At
/// lower load, workers idle between members and every member pays the
/// VM's wake-up cost: at 8/s member latency read 15-25% higher, and
/// varied more, than at 14/s on the same host.
constexpr double kRate = 14.0;
constexpr int kWorkers = 2;
/// Server set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Distinct member indices per shape: each (shape, member) pair recurs,
/// and all its copies must end with one digest.
constexpr int kMembersPerShape = 4;

struct Shape {
  const char* name;      ///< label in the raw record
  const char* scenario;  ///< registry name; nullptr = plain config
  int ne;
  int steps;
};

constexpr Shape kShapes[] = {
    {"storm-track", "storm-track-ensemble", 4, 8},
    {"held-suarez", "held-suarez", 3, 12},
    {"baroclinic", "baroclinic-wave", 3, 12},
    {"plain", nullptr, 3, 12},
};
constexpr int kNumShapes = static_cast<int>(std::size(kShapes));

std::string copy_name(const char* scenario) {
  return std::string("perfbench.") + scenario;
}

// -- traced scenario copies ---------------------------------------------------

/// Per worker thread: end of the member's previous forcing call, in the
/// member session tracer's clock (us). A worker runs one member at a time.
thread_local double t_prev_us = 0.0;

obs::Track& bench_track(model::Session& s) {
  return s.tracer().track("perfbench", 0, 1);
}

/// The Held-Suarez relaxation, as registered in the builtin workload, with
/// its two state copies timed apart from the forcing arithmetic.
void held_suarez_timed(model::Session& s, obs::Track& trk) {
  trk.begin("model:state_copy");
  homme::State st = s.state();
  trk.end();
  phys::held_suarez_forcing(s.mesh(), s.dims(), st, s.dt());
  trk.begin("model:state_copy");
  s.set_state(st);
  trk.end();
}

/// One event fired after every step (and once before the first): it
/// closes the step just taken as a "model:step" span, then runs the
/// original scenario's forcing inside a "scenario:forcing" span. Step 0
/// marks the end of Session construction.
scenario::ForcingEvent timed_forcing(const scenario::Scenario* orig) {
  scenario::ForcingEvent ev;
  ev.start = 0;
  ev.every = 1;
  ev.name = "perfbench-timed-forcing";
  const bool held_suarez = orig->name == "held-suarez";
  ev.apply = [orig, held_suarez](model::Session& s, int n) {
    obs::Track& trk = bench_track(s);
    const double now = s.tracer().wall_now_us();
    if (n == 0) {
      trk.complete_at("model:session_build", 0.0, now);
    } else {
      trk.complete_at("model:step", t_prev_us, now - t_prev_us);
    }
    trk.begin("scenario:forcing");
    if (held_suarez) {
      if (n >= 1) held_suarez_timed(s, trk);
    } else {
      scenario::fire_forcing(*orig, s, n);
    }
    trk.end();
    t_prev_us = s.tracer().wall_now_us();
  };
  return ev;
}

/// Samples the session's async checkpoint counters once, when the engine
/// starts checking invariants; never fails.
scenario::Invariant checkpoint_sample() {
  return {"perfbench-checkpoint-sample", [](model::Session& s) {
            const auto st = s.checkpoint_stats();
            const obs::Counter args[3] = {{"saves", st.saves},
                                          {"bytes", st.bytes_written},
                                          {"blocked_saves", st.blocked_saves}};
            bench_track(s).instant("homme:ckpt_sample", args);
            return std::optional<std::string>{};
          }};
}

scenario::Invariant timed_invariant(const scenario::Invariant& inv) {
  return {inv.name, [inv](model::Session& s) {
            obs::Track& trk = bench_track(s);
            trk.begin(s.tracer().intern("scenario:invariant:" + inv.name));
            auto why = inv.check(s);
            trk.end();
            return why;
          }};
}

void register_traced_copies() {
  for (const Shape& sh : kShapes) {
    if (sh.scenario == nullptr || scenario::find(copy_name(sh.scenario))) {
      continue;
    }
    const scenario::Scenario& orig = scenario::get(sh.scenario);
    scenario::Scenario copy = orig;
    copy.name = copy_name(sh.scenario);
    copy.defaults.with_trace(true, obs::ClockDomain::kWall);
    copy.forcing = {timed_forcing(&orig)};
    copy.invariants = {checkpoint_sample()};
    for (const auto& inv : orig.invariants) {
      copy.invariants.push_back(timed_invariant(inv));
    }
    scenario::register_scenario(std::move(copy));
  }
}

// -- the generated load --------------------------------------------------------

struct Planned {
  int shape = 0;
  int member = 0;      ///< member index bound into the IC
  double at_s = 0.0;   ///< scheduled arrival, seconds after the window opens
  std::string tenant;
};

/// kRate * seconds arrivals of a Poisson process (uniform order
/// statistics), each shape an equal share, shuffled by the seed.
std::vector<Planned> plan_load(std::uint64_t seed, double seconds) {
  Rng rng(seed);
  const int n = std::max(kNumShapes, static_cast<int>(std::lround(kRate * seconds)));
  std::vector<double> at(static_cast<std::size_t>(n));
  for (double& t : at) t = seconds * rng.uniform();
  std::sort(at.begin(), at.end());
  std::vector<int> shapes(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) shapes[static_cast<std::size_t>(i)] = i % kNumShapes;
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(rng.next() % static_cast<std::uint64_t>(i + 1));
    std::swap(shapes[static_cast<std::size_t>(i)], shapes[static_cast<std::size_t>(j)]);
  }
  const int member_base = 1 + static_cast<int>(seed % 1000) * kMembersPerShape;
  std::vector<Planned> plan(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Planned& p = plan[static_cast<std::size_t>(i)];
    p.shape = shapes[static_cast<std::size_t>(i)];
    p.member = member_base + static_cast<int>(rng.next() % kMembersPerShape);
    p.at_s = at[static_cast<std::size_t>(i)];
    p.tenant = i % 2 == 0 ? "ops" : "research";
  }
  return plan;
}

/// The RunRequest of one member. Plain members carry a generated config
/// (baroclinic wave with a member-seeded longitude) and get the server's
/// checkpoint cadence; the others name a registered scenario.
svc::RunRequest make_request(const Shape& sh, int member, bool traced) {
  svc::RunRequest req;
  req.steps = sh.steps;
  req.member = member;
  if (sh.scenario != nullptr) {
    req.scenario = traced ? copy_name(sh.scenario) : sh.scenario;
    req.overrides.ne = sh.ne;
    return req;
  }
  Rng rng(static_cast<std::uint64_t>(member));
  req.config = model::SessionConfig{}
                   .with_ne(sh.ne)
                   .with_levels(8, 2)
                   .with_init(scenario::InitSpec::baroclinic(
                       true, 20.0, 300.0, 2.0,
                       2.0 * std::numbers::pi * rng.uniform()));
  if (traced) req.config.with_trace(true, obs::ClockDomain::kWall);
  return req;
}

/// A server whose queue never fills at the offered rate, with the delta
/// checkpoint cadence the plain members get (every 4 steps, a full image
/// every 4 saves).
std::unique_ptr<svc::Server> make_server(const std::string& ckpt_dir) {
  svc::ServerConfig cfg;
  cfg.engine.workers = kWorkers;
  cfg.engine.queue_capacity = 4096;
  cfg.checkpoint_dir = ckpt_dir;
  cfg.checkpoint_freq = 4;
  cfg.ckpt_full_interval = 4;
  auto server = std::make_unique<svc::Server>(cfg);
  for (const char* tenant : {"ops", "research"}) {
    svc::TenantQuota q;
    q.max_active = 4096;  // refuses nothing at the offered rate
    server->add_tenant(tenant, q);
  }
  return server;
}

struct ProbeResult {
  std::vector<double> run_s;
  std::vector<std::uint32_t> digests;
  bool ok = true;
};

/// Submit one member of each shape in turn and wait for it. Used as the
/// set-up warm-up and as the traced run's overhead and equivalence probe.
ProbeResult run_one_per_shape(svc::Server& server, const std::string& prefix,
                              int member, bool traced) {
  ProbeResult out;
  for (int k = 0; k < kNumShapes; ++k) {
    auto o = server.submit("ops", prefix + kShapes[k].name,
                           make_request(kShapes[k], member, traced));
    if (o.ticket == nullptr) {
      out.ok = false;
      continue;
    }
    const svc::RunResult& r = o.ticket->wait();
    out.ok = out.ok && r.state == svc::RunState::kCompleted;
    out.run_s.push_back(r.wall_s);
    out.digests.push_back(r.state_crc);
  }
  return out;
}

}  // namespace

void run_ensemble(const Args& args, JsonOut& out, Outcome& outcome) {
  const bool traced = args.trace;
  const std::string ckpt_dir = args.out_dir + "/ckpt";
  std::filesystem::remove_all(ckpt_dir);
  std::filesystem::create_directories(ckpt_dir);
  const std::vector<Planned> plan = plan_load(args.seed, args.seconds);
  scenario::names();  // builtin registration, outside every timed section
  if (traced) register_traced_copies();

  obs::Tracer bench(obs::ClockDomain::kWall);
  bench.enable(traced);
  bench.set_label("perfbench");
  bench.set_pid_offset(1000);
  obs::Track& gen = bench.track("generator", 0, 0);
  const double epoch_s = now_s() - 1e-6 * bench.wall_now_us();
  const auto us = [epoch_s](double t_s) { return 1e6 * (t_s - epoch_s); };

  // Set-up: server construction plus one member of each shape, repeated.
  std::vector<double> setup_s;
  std::unique_ptr<svc::Server> server;
  const int probe_member = plan.front().member;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    const double t0 = now_s();
    server = make_server(ckpt_dir);
    const ProbeResult warm = run_one_per_shape(
        *server, "warm" + std::to_string(i) + "-", probe_member, traced);
    setup_s.push_back(now_s() - t0);
    outcome.check(warm.ok, "a warm-up member did not complete");
  }

  // Traced run only: the same shapes untraced (builtin scenarios) and
  // traced (benchmark copies), alternating, for the tracing overhead;
  // copies and builtins must agree digest for digest.
  std::vector<double> probe_untraced, probe_traced;
  double mesh_bundle_s = 0.0;
  if (traced) {
    for (int i = 0; i < kSetups; ++i) {
      const std::string tag = std::to_string(i) + "-";
      const ProbeResult u = run_one_per_shape(*server, "probe-u" + tag, probe_member, false);
      const ProbeResult t = run_one_per_shape(*server, "probe-t" + tag, probe_member, true);
      outcome.check(u.ok && t.ok, "a probe member did not complete");
      outcome.check(u.digests == t.digests,
                    "traced scenario copies diverge from the builtin scenarios");
      probe_untraced.push_back(std::accumulate(u.run_s.begin(), u.run_s.end(), 0.0));
      probe_traced.push_back(std::accumulate(t.run_s.begin(), t.run_s.end(), 0.0));
    }
    std::set<int> nes;
    for (const Shape& sh : kShapes) nes.insert(sh.ne);
    gen.begin("bench:mesh_bundle");
    const double t0 = now_s();
    for (int ne : nes) model::MeshBundle::build(ne, 1);
    mesh_bundle_s = now_s() - t0;
    gen.end();
  }

  obs::Tracer members(obs::ClockDomain::kWall);
  members.enable(traced);
  members.set_label("members");
  members.set_pid_offset(2000);
  members.set_ring_capacity(8);

  const svc::EngineStats before = server->engine_stats();
  const std::uint64_t retries_before = server->retries();
  struct Sent {
    double scheduled = 0.0, submit_start = 0.0, submit_end = 0.0;
    svc::Server::SubmitOutcome res;
  };
  std::vector<Sent> sent(plan.size());

  // The open loop: the calling thread is the generator.
  Window w;
  w.start();
  const double t_open = now_s();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Planned& p = plan[i];
    Sent& s = sent[i];
    s.scheduled = t_open + p.at_s;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(s.scheduled - now_s()));
    s.submit_start = now_s();
    gen.begin("svc:submit");
    s.res = server->submit(p.tenant, "m" + std::to_string(i),
                               make_request(kShapes[p.shape], p.member, traced));
    gen.end();
    s.submit_end = now_s();
  }
  gen.begin("svc:wait");
  for (const Sent& s : sent) {
    if (s.res.ticket != nullptr) s.res.ticket->wait();
  }
  server->wait_idle();
  gen.end();
  w.stop();
  const long rss_kb = peak_rss_kb();
  const svc::EngineStats after = server->engine_stats();

  // dt of each shape, for the simulated time delivered.
  std::vector<double> dt(kNumShapes);
  for (int k = 0; k < kNumShapes; ++k) {
    svc::RunRequest req = make_request(kShapes[k], 1, false);
    if (kShapes[k].scenario != nullptr) {
      req.config = scenario::get(kShapes[k].scenario).config(req.overrides, 1);
    }
    dt[static_cast<std::size_t>(k)] = model::Session(req.config).dt();
  }

  // Per-member records and output checks.
  std::map<std::pair<int, int>, std::set<std::uint32_t>> digests;
  std::int64_t admitted = 0, throttled = 0, rejected = 0;
  double sim_s = 0.0;
  out.begin_array("members");
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Planned& p = plan[i];
    const Sent& s = sent[i];
    ++outcome.attempted;
    switch (s.res.admission) {
      case svc::Admission::kAdmitted: ++admitted; break;
      case svc::Admission::kThrottled: ++throttled; break;
      case svc::Admission::kRejected: ++rejected; break;
    }
    out.begin_object()
        .str("shape", kShapes[p.shape].name)
        .integer("member", p.member)
        .str("tenant", p.tenant)
        .num("at_s", p.at_s)
        .str("admission", svc::to_string(s.res.admission))
        .num("late_s", s.submit_start - s.scheduled)
        .num("submit_s", s.submit_end - s.submit_start);
    if (s.res.ticket == nullptr) {
      ++outcome.failed;
      out.str("state", "refused").end_object();
      continue;
    }
    const svc::RunResult& r = s.res.ticket->wait();
    const svc::MemberStatus st = server->member("m" + std::to_string(i));
    const bool ok = r.state == svc::RunState::kCompleted &&
                    st.last_state == svc::RunState::kCompleted &&
                    r.steps_done == kShapes[p.shape].steps;
    if (!ok) {
      ++outcome.failed;
    } else {
      sim_s += r.steps_done * dt[static_cast<std::size_t>(p.shape)];
      digests[{p.shape, p.member}].insert(r.state_crc);
    }
    const double terminal = s.submit_end + r.queue_wait_s + r.wall_s;
    out.str("state", svc::to_string(st.last_state))
        .str("error", r.error)
        .num("latency_s", terminal - s.scheduled)
        .num("queue_wait_s", r.queue_wait_s)
        .num("run_s", r.wall_s)
        .integer("steps", r.steps_done)
        .integer("digest", r.state_crc);
    if (traced) {
      out.raw("report", r.report.json());
      obs::Track& trk = members.track("member:" + std::to_string(i), 0,
                                      static_cast<int>(i));
      trk.complete_at("member", us(s.scheduled), 1e6 * (terminal - s.scheduled));
      trk.complete_at("svc:queue_wait", us(s.submit_end), 1e6 * r.queue_wait_s);
      trk.complete_at("svc:run", us(s.submit_end + r.queue_wait_s), 1e6 * r.wall_s);
    }
    out.end_object();
  }
  out.end_array();
  for (const auto& [key, set] : digests) {
    outcome.check(set.size() == 1,
                  std::string(kShapes[key.first].name) + " member " +
                      std::to_string(key.second) + " ended with " +
                      std::to_string(set.size()) + " different digests");
  }
  outcome.check(rejected == 0, std::to_string(rejected) + " members refused");

  out.numbers("setup_s", setup_s)
      .num("window_wall_s", w.wall())
      .num("window_cpu_s", w.cpu())
      .num("sim_s", sim_s)
      .integer("peak_rss_kb", rss_kb)
      .integer("workers", kWorkers)
      .integer("admitted", admitted)
      .integer("throttled", throttled)
      .integer("rejected", rejected)
      .integer("retries", static_cast<std::int64_t>(server->retries() - retries_before))
      .begin_object("engine")
      .num("busy_s", after.busy_s - before.busy_s)
      .integer("faulted", static_cast<std::int64_t>(after.faulted - before.faulted))
      .integer("queue_high_water", static_cast<std::int64_t>(after.queue_high_water))
      .integer("mesh_bundles", static_cast<std::int64_t>(after.mesh_bundles))
      .integer("checkpoint_saves",
               static_cast<std::int64_t>(after.checkpoint_saves - before.checkpoint_saves))
      .integer("checkpoint_bytes",
               static_cast<std::int64_t>(after.checkpoint_bytes - before.checkpoint_bytes))
      .integer("state_samples",
               static_cast<std::int64_t>(after.state_samples - before.state_samples))
      .integer("state_resident_bytes", static_cast<std::int64_t>(
                                           after.state_resident_bytes - before.state_resident_bytes))
      .integer("state_chunks",
               static_cast<std::int64_t>(after.state_chunks - before.state_chunks))
      .integer("state_shared_chunks", static_cast<std::int64_t>(
                                          after.state_shared_chunks - before.state_shared_chunks))
      .end_object();

  server.reset();
  std::filesystem::remove_all(ckpt_dir);
  if (traced) {
    out.num("mesh_bundle_s", mesh_bundle_s)
        .numbers("probe_untraced_s", probe_untraced)
        .numbers("probe_traced_s", probe_traced)
        .raw("bench_phases", phases_json(bench.summary()));
    std::vector<obs::Tracer*> tracers{&bench, &members};
    const std::string trace_path = args.out_dir + "/trace.json";
    outcome.check(obs::write_chrome_trace(trace_path, tracers),
                  "cannot write " + trace_path);
    out.str("trace_path", trace_path);
  }
}

}  // namespace perfbench
