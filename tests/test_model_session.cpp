// model::Session facade: config builder validation, bit-identity of a
// Session against the raw homme::Dycore it subsumes, shared-bundle
// construction, checkpoint-chain round trips, and the accelerator backend.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "homme/checkpoint.hpp"
#include "homme/driver.hpp"
#include "homme/init.hpp"
#include "model/session.hpp"
#include "scenario/registry.hpp"

namespace {

using model::ConfigError;
using model::MeshBundle;
using model::Session;
using model::SessionConfig;

/// Exact double equality over every field of every element.
void expect_states_equal(const homme::State& a, const homme::State& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    EXPECT_EQ(a[e].u1, b[e].u1) << "u1 differs at element " << e;
    EXPECT_EQ(a[e].u2, b[e].u2) << "u2 differs at element " << e;
    EXPECT_EQ(a[e].T, b[e].T) << "T differs at element " << e;
    EXPECT_EQ(a[e].dp, b[e].dp) << "dp differs at element " << e;
    EXPECT_EQ(a[e].qdp, b[e].qdp) << "qdp differs at element " << e;
    EXPECT_EQ(a[e].phis, b[e].phis) << "phis differs at element " << e;
  }
}

/// Deletes every rank's chain ("<base>.r<r>.full", ".dN") under \p base.
void remove_chains(const std::string& base, int nranks) {
  for (int r = 0; r < nranks; ++r) {
    const std::string rb = homme::checkpoint_rank_path(base, r);
    std::remove((rb + ".full").c_str());
    for (int k = 1; std::remove((rb + ".d" + std::to_string(k)).c_str()) == 0;
         ++k) {
    }
  }
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
}

TEST(SessionConfig, BuilderComposes) {
  const SessionConfig cfg = SessionConfig{}
                                .with_ne(6)
                                .with_levels(16, 3)
                                .with_dt(120.0)
                                .with_ranks(4)
                                .with_backend(SessionConfig::Backend::kPipeline)
                                .with_monitor();
  EXPECT_EQ(cfg.ne, 6);
  EXPECT_EQ(cfg.nlev, 16);
  EXPECT_EQ(cfg.qsize, 3);
  EXPECT_EQ(cfg.dt, 120.0);
  EXPECT_EQ(cfg.nranks, 4);
  EXPECT_EQ(cfg.backend, SessionConfig::Backend::kPipeline);
  EXPECT_TRUE(cfg.monitor);
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_EQ(cfg.dims().nlev, 16);
  EXPECT_EQ(cfg.dycore_config().dt, 120.0);
}

TEST(SessionConfig, RejectsUnrealizableSettings) {
  EXPECT_THROW(SessionConfig{}.with_ne(0).validate(), ConfigError);
  EXPECT_THROW(SessionConfig{}.with_radius(-1.0).validate(), ConfigError);
  EXPECT_THROW(SessionConfig{}.with_levels(0, 2).validate(), ConfigError);
  EXPECT_THROW(SessionConfig{}.with_levels(8, -1).validate(), ConfigError);
  EXPECT_THROW(SessionConfig{}.with_dt(-10.0).validate(), ConfigError);
  EXPECT_THROW(SessionConfig{}.with_remap_freq(0).validate(), ConfigError);
  EXPECT_THROW(SessionConfig{}.with_ranks(0).validate(), ConfigError);
  // More ranks than elements: ne1 has 6 elements.
  EXPECT_THROW(SessionConfig{}.with_ne(1).with_ranks(7).validate(),
               ConfigError);
  EXPECT_THROW(SessionConfig{}.with_levels(8, 0).with_moist().validate(),
               ConfigError);
  EXPECT_THROW(SessionConfig{}.with_levels(8, 0).with_physics().validate(),
               ConfigError);
  EXPECT_THROW(
      SessionConfig{}.with_ranks(2).with_physics().validate(), ConfigError);
  // Checkpoint cadence without a base path.
  SessionConfig ck;
  ck.checkpoint_freq = 5;
  EXPECT_THROW(ck.validate(), ConfigError);
  EXPECT_NO_THROW(SessionConfig{}.with_checkpoints("/tmp/ck", 5).validate());
  // Every save is a full image at K = 1; there is no K = 0 mode.
  EXPECT_THROW(SessionConfig{}.with_checkpoints("/tmp/ck", 5, 0).validate(),
               ConfigError);
  EXPECT_NO_THROW(
      SessionConfig{}.with_ranks(2).with_checkpoints("/tmp/ck", 5, 4).validate());
  // Every session needs an IC generator.
  EXPECT_THROW(SessionConfig{}.with_init(scenario::InitSpec{}).validate(),
               ConfigError);
  // The Session constructor runs the same validation.
  EXPECT_THROW(Session(SessionConfig{}.with_ne(0)), ConfigError);
}

TEST(SessionConfig, RejectsIncompatibleBundle) {
  const auto bundle = MeshBundle::build(2, 1);
  EXPECT_TRUE(bundle->compatible(SessionConfig{}.with_ne(2)));
  EXPECT_FALSE(bundle->compatible(SessionConfig{}.with_ne(4)));
  EXPECT_THROW(Session(SessionConfig{}.with_ne(4), bundle), ConfigError);
  EXPECT_THROW(Session(SessionConfig{}.with_ne(2).with_ranks(2), bundle),
               ConfigError);
}

// The facade must not change the numbers: a Session on the host backend
// is the raw Dycore it wraps, bit for bit, including the remap cadence.
TEST(Session, BitIdenticalToRawDycore) {
  const int kSteps = 5;
  const SessionConfig cfg = SessionConfig{}.with_ne(4).with_levels(8, 2);

  Session session(cfg);
  session.run(kSteps);

  auto mesh = mesh::CubedSphere::build(4, mesh::kEarthRadius);
  const homme::Dims d = cfg.dims();
  homme::State raw = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, raw);
  homme::Dycore dycore(mesh, d, cfg.dycore_config());
  for (int i = 0; i < kSteps; ++i) dycore.step(raw);

  EXPECT_EQ(session.step_count(), kSteps);
  EXPECT_EQ(session.dt(), dycore.dt());
  expect_states_equal(session.state(), raw);
}

// Parallel decomposition is a config value, not a different answer.
TEST(Session, ParallelMatchesSequential) {
  const int kSteps = 3;
  const SessionConfig base = SessionConfig{}.with_ne(2).with_levels(8, 2);

  Session seq(base);
  seq.run(kSteps);

  Session par(SessionConfig{base}.with_ranks(3));
  par.run(kSteps);

  expect_states_equal(par.state(), seq.state());
}

// The pipeline backend's remap takes homme's target thicknesses and
// column plans, so every builtin scenario steps to the host's bits, and
// no fault means no host fallback. At three core groups the shards
// differ in width; at two ranks (the scenarios without physics, which
// runs on one rank) every rank remaps its own local state.
TEST(Session, PipelineBackendMatchesHost) {
  const int kSteps = 4;  // remap_freq 3: crosses a remap step
  for (const std::string& name : scenario::names()) {
    const scenario::Scenario& sc = scenario::get(name);
    for (const int nranks : {1, 2}) {
      if (nranks > 1 && sc.defaults.physics) continue;
      scenario::Overrides ov;
      ov.ne = 2;
      ov.nranks = nranks;
      ov.remap_freq = 3;
      const auto host = sc.session(ov);
      scenario::run(sc, *host, kSteps);
      EXPECT_EQ(host->accelerator(), nullptr);
      for (const int cgs : {1, 3}) {
        SCOPED_TRACE(name + ", ranks " + std::to_string(nranks) +
                     ", core groups " + std::to_string(cgs));
        scenario::Overrides po = ov;
        po.backend = SessionConfig::Backend::kPipeline;
        po.core_groups = cgs;
        const auto pipe = sc.session(po);
        scenario::run(sc, *pipe, kSteps);

        EXPECT_EQ(pipe->fallbacks(), 0);
        for (int r = 0; r < nranks; ++r) {
          ASSERT_NE(pipe->accelerator(r), nullptr);
        }
        EXPECT_EQ(model::state_digest(pipe->state(), kSteps),
                  model::state_digest(host->state(), kSteps));
      }
    }
  }
}

TEST(Session, SharedBundleIsSharedAndCheaper) {
  const auto bundle = MeshBundle::build(4, 1);
  EXPECT_GT(bundle->bytes(), 0u);

  const SessionConfig cfg = SessionConfig{}.with_ne(4).with_levels(4, 1);
  Session a(cfg, bundle);
  Session b(cfg, bundle);
  EXPECT_EQ(a.bundle_ptr().get(), b.bundle_ptr().get());
  EXPECT_EQ(&a.mesh(), &b.mesh());

  a.step();
  b.step();
  expect_states_equal(a.state(), b.state());
}

TEST(Session, SaveRestoreRoundTripsBitIdentically) {
  // One rank and two: every rank restores its shard from its own chain.
  for (const int nranks : {1, 2}) {
    const std::string base = ::testing::TempDir() + "test_model_session_r" +
                             std::to_string(nranks) + ".ck";
    const SessionConfig cfg = SessionConfig{}
                                  .with_ne(2)
                                  .with_levels(8, 2)
                                  .with_remap_freq(3)
                                  .with_ranks(nranks)
                                  .with_checkpoints(base, /*freq=*/0);
    homme::State gold;
    {
      Session s(cfg);
      s.run(4);  // step 4: mid remap cycle, the cadence must survive restore
      s.checkpoint_now();
      s.run(3);
      gold = s.state();
    }  // destruction flushes the chain

    Session t(cfg);
    ASSERT_TRUE(t.try_resume());
    EXPECT_EQ(t.step_count(), 4);
    t.run(3);
    expect_states_equal(t.state(), gold);
    remove_chains(base, nranks);
  }
}

TEST(Session, CheckpointCadenceWritesDuringRun) {
  const std::string base =
      ::testing::TempDir() + "test_model_session_cadence.ck";
  const SessionConfig cfg =
      SessionConfig{}.with_ne(2).with_levels(4, 1).with_checkpoints(base, 2);
  homme::State gold;
  {
    Session s(cfg);
    s.run(4);
    gold = s.state();
    EXPECT_EQ(s.checkpoint_stats().saves, 2u);  // steps 2 and 4
  }

  // The step-4 checkpoint is on disk; a fresh session resumes from it.
  Session t(cfg);
  ASSERT_TRUE(t.try_resume());
  EXPECT_EQ(t.step_count(), 4);
  expect_states_equal(t.state(), gold);
  remove_chains(base, 1);
}

TEST(Session, TryResumeWithoutAChainLeavesTheSessionUntouched) {
  const std::string base = ::testing::TempDir() + "test_model_session_none.ck";
  remove_chains(base, 2);
  Session s(SessionConfig{}.with_ne(2).with_levels(4, 1).with_ranks(2)
                .with_checkpoints(base, 2));
  const homme::State fresh = s.state();
  EXPECT_FALSE(s.try_resume());
  EXPECT_EQ(s.step_count(), 0);
  expect_states_equal(s.state(), fresh);

  // Without a checkpoint base there is nothing to resume from either.
  Session plain(SessionConfig{}.with_ne(2).with_levels(4, 1));
  EXPECT_FALSE(plain.try_resume());
  EXPECT_FALSE(plain.checkpoint_now());
  EXPECT_EQ(plain.checkpoint_stats().saves, 0u);
}

TEST(Session, ForkWritesItsOwnChainsAndLeavesTheParentsFiles) {
  const std::string pbase = ::testing::TempDir() + "test_model_session_fp.ck";
  const std::string cbase = ::testing::TempDir() + "test_model_session_fc.ck";
  const SessionConfig cfg = SessionConfig{}
                                .with_ne(2)
                                .with_levels(4, 1)
                                .with_ranks(2)
                                .with_checkpoints(pbase, 2, /*K=*/3);
  Session parent(cfg);
  parent.run(4);  // saves at steps 2 and 4: ".full" + ".d1" per rank
  EXPECT_EQ(parent.checkpoint_stats().saves, 4u);
  std::map<std::string, std::vector<char>> before;
  for (int r = 0; r < 2; ++r) {
    const std::string rb = homme::checkpoint_rank_path(pbase, r);
    for (const char* ext : {".full", ".d1"}) {
      before[rb + ext] = slurp(rb + ext);
      ASSERT_FALSE(before[rb + ext].empty()) << rb + ext;
    }
  }

  auto child = parent.fork(cbase);
  child->run(4);  // steps 5..8: saves at 6 and 8 on the child's chains
  EXPECT_EQ(child->checkpoint_stats().saves, 4u);
  for (const auto& [path, bytes] : before) {
    EXPECT_EQ(slurp(path), bytes) << path << " changed under the fork";
  }
  for (int r = 0; r < 2; ++r) {
    EXPECT_FALSE(
        std::ifstream(homme::checkpoint_rank_path(pbase, r) + ".d2").is_open());
  }

  // The child's chains hold the child's state.
  Session t(SessionConfig{cfg}.with_checkpoints(cbase, 2, 3));
  ASSERT_TRUE(t.try_resume());
  EXPECT_EQ(t.step_count(), 8);
  expect_states_equal(t.state(), child->state());
  remove_chains(pbase, 2);
  remove_chains(cbase, 2);
}

TEST(Session, MonitorThrowsModelBlowup) {
  // An absurd dt makes the very first step non-finite; the monitor must
  // surface that as ModelBlowup instead of silently marching NaNs.
  Session s(SessionConfig{}
                .with_ne(2)
                .with_levels(4, 1)
                .with_dt(1.0e9)
                .with_monitor());
  EXPECT_THROW(s.run(10), model::ModelBlowup);
}

TEST(Session, DiagnosticsAndTracerWork) {
  Session s(SessionConfig{}
                .with_ne(2)
                .with_levels(4, 1)
                .with_trace(true, obs::ClockDomain::kVirtual));
  s.run(2);
  const homme::Diagnostics d = s.diagnose();
  EXPECT_GT(d.dry_mass, 0.0);
  EXPECT_GT(d.min_dp, 0.0);
  const obs::Summary sum = s.summary();
  EXPECT_GT(obs::phase_count(sum, "dyn:step"), 0u);
}

}  // namespace
