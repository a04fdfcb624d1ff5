// scenario:: registry: typed lookup, registration rules, every builtin
// workload runnable and self-consistent, InitSpec bit-equivalence with
// the raw homme:: IC generators, member-seeded perturbation determinism, the
// strict bench CLI, and mixed-scenario ensembles through svc::Engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "homme/checkpoint.hpp"
#include "homme/driver.hpp"
#include "homme/init.hpp"
#include "physics/driver.hpp"
#include "scenario/experiments.hpp"
#include "scenario/registry.hpp"
#include "svc/engine.hpp"
#include "tc/vortex.hpp"

namespace {

/// Small-but-real shape every builtin scenario can run at in a test.
scenario::Overrides tiny_overrides() {
  scenario::Overrides ov;
  ov.ne = 2;
  ov.nlev = 4;
  return ov;
}

std::uint32_t digest_of(model::Session& s) {
  return model::state_digest(s.state(), s.step_count());
}

TEST(ScenarioRegistry, UnknownNameThrowsTypedNotFound) {
  EXPECT_THROW(scenario::get("no-such-workload"), scenario::NotFound);
  EXPECT_EQ(scenario::find("no-such-workload"), nullptr);
  // The error names the miss and the menu.
  try {
    scenario::get("no-such-workload");
    FAIL() << "expected scenario::NotFound";
  } catch (const scenario::NotFound& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-workload"), std::string::npos);
    EXPECT_NE(what.find("katrina"), std::string::npos);
  }
}

TEST(ScenarioRegistry, BuiltinMenuIsCompleteAndSorted) {
  const std::vector<std::string> expected = {
      "aquaplanet",      "baroclinic-wave", "fig4-validation",
      "held-suarez",     "katrina",         "nggps",
      "storm-track-ensemble", "tracer-advection"};
  std::vector<std::string> sorted = expected;
  std::sort(sorted.begin(), sorted.end());
  // Tests in this binary may register extra "test-*" scenarios; the
  // builtin menu itself must be exactly the expected (sorted) list.
  std::vector<std::string> builtins;
  for (const auto& n : scenario::names()) {
    if (n.rfind("test-", 0) != 0) builtins.push_back(n);
  }
  EXPECT_EQ(builtins, sorted);
  EXPECT_GE(builtins.size(), 5u);  // the acceptance floor
  for (const auto& n : sorted) {
    const scenario::Scenario* sc = scenario::find(n);
    ASSERT_NE(sc, nullptr) << n;
    EXPECT_EQ(sc->name, n);
    EXPECT_FALSE(sc->kind.empty()) << n;
    EXPECT_FALSE(sc->title.empty()) << n;
    EXPECT_TRUE(sc->defaults.init_spec.engaged()) << n;
    EXPECT_FALSE(sc->invariants.empty()) << n;
  }
}

TEST(ScenarioRegistry, RegistrationRulesAreEnforced) {
  // Duplicate of a builtin.
  scenario::Scenario dup;
  dup.name = "katrina";
  dup.defaults = model::SessionConfig{}.with_init(
      scenario::InitSpec::isothermal_rest());
  EXPECT_THROW(scenario::register_scenario(dup), std::invalid_argument);
  // Empty name.
  scenario::Scenario unnamed;
  unnamed.defaults = model::SessionConfig{}.with_init(
      scenario::InitSpec::isothermal_rest());
  EXPECT_THROW(scenario::register_scenario(unnamed), std::invalid_argument);
  // No engaged InitSpec: a scenario must be launchable as data.
  scenario::Scenario no_ic;
  no_ic.name = "test-no-ic";
  no_ic.defaults.init_spec = scenario::InitSpec{};
  EXPECT_THROW(scenario::register_scenario(no_ic), std::invalid_argument);
}

TEST(ScenarioRegistry, EveryBuiltinConstructsStepsAndHoldsInvariants) {
  for (const auto& name : scenario::names()) {
    if (name.rfind("test-", 0) == 0) continue;  // test-local registrations
    SCOPED_TRACE(name);
    const scenario::Scenario& sc = scenario::get(name);
    auto session = sc.session(tiny_overrides());
    scenario::run(sc, *session, 2);
    EXPECT_EQ(session->step_count(), 2);
    const auto violated = scenario::check_invariants(sc, *session);
    EXPECT_FALSE(violated.has_value()) << *violated;
  }
}

TEST(ScenarioRegistry, TwelveStepDigestsArePinned) {
  // The host trajectory of every builtin at its default shape, after 12
  // steps in scenario::run order: at 1 rank, and at 2 ranks where the
  // scenario has no physics. The values hold at every vpack width and on
  // every ISA because contraction is off in every build; they do depend
  // on libm's trig, exp and pow (recorded with glibc 2.36). A change that
  // moves one has changed the model's arithmetic.
  struct Pin {
    std::uint32_t one_rank;
    std::uint32_t two_ranks;  ///< 0: the scenario has physics
  };
  const std::map<std::string, Pin> pins = {
      {"aquaplanet", {0x8ed74e0a, 0}},
      {"baroclinic-wave", {0xa1bcd641, 0x519d9e6a}},
      {"fig4-validation", {0x8ed74e0a, 0}},
      {"held-suarez", {0x9f34c10c, 0x302743c8}},
      {"katrina", {0x5856eb31, 0}},
      {"nggps", {0x68c0d92e, 0x38375ebb}},
      {"storm-track-ensemble", {0x45cd662e, 0}},
      {"tracer-advection", {0x2c9b2c4d, 0x54e3575a}},
  };
  auto hex = [](std::uint32_t v) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", v);
    return std::string(buf);
  };
  for (const auto& name : scenario::names()) {
    if (name.rfind("test-", 0) == 0) continue;  // test-local registrations
    const auto pin = pins.find(name);
    ASSERT_NE(pin, pins.end()) << name << " has no pinned digest";
    const scenario::Scenario& sc = scenario::get(name);
    EXPECT_EQ(sc.defaults.physics, pin->second.two_ranks == 0) << name;
    for (int nranks : {1, 2}) {
      const std::uint32_t want =
          nranks == 1 ? pin->second.one_rank : pin->second.two_ranks;
      if (want == 0) continue;
      scenario::Overrides ov;
      ov.nranks = nranks;
      ov.backend = model::SessionConfig::Backend::kHost;
      auto s = sc.session(ov);
      scenario::run(sc, *s, 12);
      const std::uint32_t got = digest_of(*s);
      EXPECT_EQ(got, want) << name << " at " << nranks << " rank(s): "
                           << hex(got) << ", pinned " << hex(want);
    }
  }
}

TEST(ScenarioRegistry, ManyRankDigestsArePinned) {
  // baroclinic-wave at its default shape after 12 steps, at 3, 4 and 7
  // ranks, in both exchange modes (which agree bit for bit). Each rank
  // count adds a shared node's partial sums in its own order, so each has
  // its own digest; the pins hold the multi-rank DSS to its bits.
  // ROADMAP item 4 (one summation order at every rank count) moves these
  // on purpose; re-pin them then, with a CHANGES.md entry.
  const scenario::Scenario& sc = scenario::get("baroclinic-wave");
  const std::pair<int, std::uint32_t> pins[] = {
      {3, 0x8afd5c59}, {4, 0x92facac3}, {7, 0xdc4f2924}};
  for (const auto& [nranks, want] : pins) {
    for (auto mode : {homme::BndryExchange::Mode::kOriginal,
                      homme::BndryExchange::Mode::kOverlap}) {
      scenario::Overrides ov;
      ov.nranks = nranks;
      ov.backend = model::SessionConfig::Backend::kHost;
      model::Session s(sc.config(ov).with_exchange(mode));
      scenario::run(sc, s, 12);
      EXPECT_EQ(digest_of(s), want)
          << nranks << " ranks, "
          << (mode == homme::BndryExchange::Mode::kOverlap ? "overlap"
                                                           : "original");
    }
  }
}

TEST(ScenarioRegistry, InitSpecMatchesRawGeneratorsBitExactly) {
  // The typed InitSpec path must reproduce the raw homme:: IC generators
  // (plus the cosine-bell tracers) bit for bit, at birth and after a
  // remap cycle — the guarantee that let the benches migrate without
  // digest churn.
  const auto base = model::SessionConfig{}.with_ne(2).with_levels(4, 1);
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  const homme::Dims d = base.dims();
  const std::pair<scenario::InitSpec, homme::State> cases[] = {
      {scenario::InitSpec::baroclinic(), homme::baroclinic(m, d)},
      {scenario::InitSpec::solid_body(), homme::solid_body_rotation(m, d)}};
  for (const auto& [spec, generated] : cases) {
    SCOPED_TRACE(spec.name);
    homme::State raw = generated;
    homme::init_tracers(m, d, raw);
    model::Session typed(model::SessionConfig(base).with_init(spec));
    EXPECT_EQ(digest_of(typed), model::state_digest(raw, 0));

    homme::Dycore dycore(m, d, base.dycore_config());
    dycore.run(raw, 3);
    typed.run(3);
    EXPECT_EQ(digest_of(typed), model::state_digest(raw, 3));
  }
}

TEST(ScenarioRegistry, MemberPerturbationIsDeterministicAndDistinct) {
  const scenario::Scenario& sc = scenario::get("storm-track-ensemble");
  auto run_member = [&](int member) {
    auto s = sc.session(tiny_overrides(), member);
    s->run(2);
    return digest_of(*s);
  };
  const std::uint32_t m0 = run_member(0);
  const std::uint32_t m1 = run_member(1);
  const std::uint32_t m2 = run_member(2);
  EXPECT_EQ(m1, run_member(1));  // same member, same bits
  EXPECT_NE(m0, m1);             // perturbed members differ from control
  EXPECT_NE(m1, m2);             // ... and from each other
}

TEST(ScenarioRegistry, ForcingScheduleSemantics) {
  // every == 0 fires exactly at start; every > 0 fires on the cadence.
  int one_shot = 0, cadence = 0;
  scenario::Scenario sc;
  sc.name = "test-forcing-semantics";
  sc.defaults = model::SessionConfig{}.with_ne(2).with_levels(4, 0).with_init(
      scenario::InitSpec::isothermal_rest(/*with_tracers=*/false));
  sc.forcing = {
      {/*start=*/0, /*every=*/0, "seed",
       [&one_shot](model::Session&, int) { ++one_shot; }},
      {/*start=*/2, /*every=*/2, "cadence",
       [&cadence](model::Session&, int) { ++cadence; }},
  };
  model::Session s(sc.defaults);
  scenario::run(sc, s, 6);
  EXPECT_EQ(one_shot, 1);  // step 0 only
  EXPECT_EQ(cadence, 3);   // steps 2, 4, 6
}

TEST(ScenarioRegistry, RunResumesOnTrajectory) {
  // Held-Suarez forces every step, so a checkpoint written before the
  // step's forcing would resume one relaxation short of the straight run.
  const scenario::Scenario& sc = scenario::get("held-suarez");
  scenario::Overrides ov = tiny_overrides();
  auto straight = sc.session(ov);
  scenario::run(sc, *straight, 8);

  const std::string base = ::testing::TempDir() + "scenario_resume.ck";
  ov.checkpoint_base = base;
  ov.checkpoint_freq = 2;
  scenario::run(sc, *sc.session(ov), 4);
  auto resumed = sc.session(ov);
  ASSERT_TRUE(resumed->try_resume());
  EXPECT_EQ(resumed->step_count(), 4);
  scenario::run(sc, *resumed, 4);
  EXPECT_EQ(digest_of(*resumed), digest_of(*straight));
  std::remove((homme::checkpoint_rank_path(base, 0) + ".full").c_str());
}

TEST(ScenarioRegistry, InitialStateHelperFillsTracers) {
  const scenario::Scenario& sc = scenario::get("tracer-advection");
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::Dims d;
  d.nlev = 4;
  d.qsize = 2;
  d.moist = true;
  const auto s = scenario::initial_state(sc, m, d);
  ASSERT_EQ(static_cast<int>(s.size()), m.nelem());
  // The kernel-workset IC: tracers are filled (cosine bells, positive
  // somewhere), winds carry the scenario's u0.
  double qmax = 0.0;
  for (const auto& es : s) {
    for (double q : es.q(0, d)) qmax = std::max(qmax, q);
  }
  EXPECT_GT(qmax, 0.0);
}

TEST(ScenarioExperiments, KatrinaScenarioMatchesRawDycorePath) {
  // The migrated Figure 9 runner must reproduce the pre-registry
  // hand-rolled loop bit-for-bit: same IC, same dynamics, same physics
  // order, same digest.
  scenario::KatrinaConfig cfg;
  cfg.nlev = 6;
  cfg.hours = 0.5;
  cfg.n_outputs = 1;
  const int ne = 3;
  const auto run = scenario::run_katrina_at(ne, cfg);

  auto m = mesh::CubedSphere::build(ne, mesh::kEarthRadius);
  homme::Dims d;
  d.nlev = cfg.nlev;
  d.qsize = 1;
  auto state = tc::tc_initial_state(m, d, cfg.vortex);
  homme::Dycore dycore(m, d, homme::DycoreConfig{});
  phys::PhysicsDriver physics(m, d, scenario::katrina_physics_cfg(cfg.vortex));
  const int steps =
      std::max(1, static_cast<int>(cfg.hours * 3600.0 / dycore.dt()));
  for (int step = 1; step <= steps; ++step) {
    dycore.step(state);
    physics.step(state, dycore.dt());
  }
  EXPECT_EQ(run.state_crc, model::state_digest(state, steps));
}

TEST(BenchOptionsDeath, StrictParsingRejectsBadValues) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto parse_argv = [](std::vector<const char*> args) {
    args.insert(args.begin(), "bench");
    int argc = static_cast<int>(args.size());
    std::vector<char*> argv;
    for (const char* a : args) argv.push_back(const_cast<char*>(a));
    argv.push_back(nullptr);
    bench::BenchOptions::parse(argc, argv.data());
  };
  EXPECT_EXIT(parse_argv({"--scenario", "no-such-workload"}),
              testing::ExitedWithCode(2), "unknown workload");
  EXPECT_EXIT(parse_argv({"--scenario"}), testing::ExitedWithCode(2),
              "requires a value");
  EXPECT_EXIT(parse_argv({"--core-groups", "abc"}),
              testing::ExitedWithCode(2), "expects an integer");
  EXPECT_EXIT(parse_argv({"--core-groups", "0"}),
              testing::ExitedWithCode(2), "out of range");
  EXPECT_EXIT(parse_argv({"--core-groups", "8junk"}),
              testing::ExitedWithCode(2), "expects an integer");
  // --list-scenarios prints the menu and exits 0.
  EXPECT_EXIT(parse_argv({"--list-scenarios"}), testing::ExitedWithCode(0),
              "");
}

TEST(BenchOptions, ScenarioFlagAcceptsRegisteredNames) {
  std::vector<const char*> raw = {"bench", "--scenario", "katrina",
                                  "--core-groups", "4"};
  int argc = static_cast<int>(raw.size());
  std::vector<char*> argv;
  for (const char* a : raw) argv.push_back(const_cast<char*>(a));
  argv.push_back(nullptr);
  const auto opts = bench::BenchOptions::parse(argc, argv.data());
  EXPECT_EQ(opts.scenario, "katrina");
  EXPECT_EQ(opts.scenario_or("nggps"), "katrina");
  EXPECT_EQ(opts.core_groups_or(1), 4);
  EXPECT_EQ(argc, 1);  // all shared flags consumed
}

TEST(ScenarioEngine, MixedEnsembleIsDigestDeterministicAcrossWorkerCounts) {
  // Two scenarios interleaved in one engine: per-member digests must not
  // depend on the worker count (the bit-identity contract under TSan).
  auto run_with_workers = [](int workers) {
    svc::Engine engine({.workers = workers, .queue_capacity = 8});
    std::vector<svc::RunTicket> tickets;
    const char* mix[] = {"baroclinic-wave", "held-suarez"};
    for (int i = 0; i < 4; ++i) {
      svc::RunRequest req;
      req.scenario = mix[i % 2];
      req.overrides = tiny_overrides();
      req.member = i;
      req.steps = 2;
      tickets.push_back(engine.submit(req));
    }
    std::vector<std::uint32_t> digests;
    for (auto& t : tickets) {
      const svc::RunResult& res = t->wait();
      EXPECT_EQ(res.state, svc::RunState::kCompleted) << res.error;
      digests.push_back(res.state_crc);
    }
    engine.shutdown();
    return digests;
  };
  const auto one = run_with_workers(1);
  const auto two = run_with_workers(2);
  EXPECT_EQ(one, two);
  // Different scenarios really produced different states.
  EXPECT_NE(one[0], one[1]);
}

TEST(ScenarioEngine, UnknownScenarioSurfacesAtSubmit) {
  svc::Engine engine({.workers = 1, .queue_capacity = 2});
  svc::RunRequest req;
  req.scenario = "no-such-workload";
  EXPECT_THROW(engine.submit(req), scenario::NotFound);
  engine.shutdown();
}

TEST(ScenarioEngine, InvariantViolationFaultsTheMember) {
  // A scenario whose invariant always fails: the member completes its
  // steps, then the engine downgrades it to Faulted with the reason.
  scenario::Scenario sc;
  sc.name = "test-always-violated";
  sc.kind = "test";
  sc.title = "invariant that cannot hold";
  sc.defaults = model::SessionConfig{}.with_ne(2).with_levels(4, 0).with_init(
      scenario::InitSpec::isothermal_rest(/*with_tracers=*/false));
  sc.invariants = {{"impossible", [](model::Session&) {
                      return std::optional<std::string>("always fails");
                    }}};
  scenario::register_scenario(sc);

  svc::Engine engine({.workers = 1, .queue_capacity = 2});
  svc::RunRequest req;
  req.scenario = "test-always-violated";
  req.steps = 1;
  auto ticket = engine.submit(req);
  const svc::RunResult& res = ticket->wait();
  EXPECT_EQ(res.state, svc::RunState::kFaulted);
  EXPECT_NE(res.error.find("invariant violation"), std::string::npos);
  EXPECT_NE(res.error.find("impossible"), std::string::npos);
  engine.shutdown();
}

}  // namespace
