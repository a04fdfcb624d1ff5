// model::Session facade: config builder validation, bit-identity of a
// Session against the raw homme::Dycore it subsumes, shared-bundle
// construction, save/restore round trips, and the accelerator backend.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "homme/checkpoint.hpp"
#include "homme/driver.hpp"
#include "homme/init.hpp"
#include "model/session.hpp"

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

/// Near-equality: the distributed DSS reassociates node sums across
/// ranks, so parallel-vs-sequential agreement is 1e-9 relative, not
/// bitwise (same bound the homme parallel tests use).
void expect_states_near(const homme::State& a, const homme::State& b) {
  ASSERT_EQ(a.size(), b.size());
  auto near = [](const homme::Chunk& x, const homme::Chunk& y) {
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], y[i], 1e-9 * (std::abs(y[i]) + 1.0));
    }
  };
  for (std::size_t e = 0; e < a.size(); ++e) {
    near(a[e].u1, b[e].u1);
    near(a[e].u2, b[e].u2);
    near(a[e].T, b[e].T);
    near(a[e].dp, b[e].dp);
    near(a[e].qdp, b[e].qdp);
  }
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

  expect_states_near(par.state(), seq.state());
}

// The pipeline backend's remap reassociates the column pressure scan on
// the simulated CPEs, so backends agree to rounding (the same bound the
// accel pipeline tests use), and no fault means no host fallback.
TEST(Session, PipelineBackendMatchesHost) {
  const int kSteps = 4;  // remap_freq 3: crosses a remap step
  const SessionConfig base = SessionConfig{}.with_ne(2).with_levels(8, 2);

  Session host(base);
  host.run(kSteps);

  Session pipe(
      SessionConfig{base}.with_backend(SessionConfig::Backend::kPipeline));
  pipe.run(kSteps);

  EXPECT_EQ(pipe.fallbacks(), 0);
  ASSERT_NE(pipe.accelerator(), nullptr);
  EXPECT_EQ(host.accelerator(), nullptr);
  expect_states_near(pipe.state(), host.state());
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
  const std::string base = "test_model_session.ck";
  const SessionConfig cfg =
      SessionConfig{}.with_ne(2).with_levels(8, 2).with_remap_freq(3);

  Session s(cfg);
  s.run(4);  // step 4: mid remap cycle, the cadence must survive restore
  s.save(base);
  s.run(3);
  const homme::State gold = s.state();

  Session t(cfg);
  t.restore(base);
  EXPECT_EQ(t.step_count(), 4);
  t.run(3);
  expect_states_equal(t.state(), gold);

  // A multi-rank restore reloads every rank's shard from its own file.
  const std::string pbase = "test_model_session_par.ck";
  Session p(SessionConfig{cfg}.with_ranks(2));
  p.run(4);
  p.save(pbase);
  p.run(3);
  const homme::State pgold = p.state();

  Session q(SessionConfig{cfg}.with_ranks(2));
  q.restore(pbase);
  q.run(3);
  expect_states_equal(q.state(), pgold);

  for (int r = 0; r < 2; ++r) {
    std::remove(homme::checkpoint_rank_path(base, r).c_str());
    std::remove(homme::checkpoint_rank_path(pbase, r).c_str());
  }
}

TEST(Session, CheckpointCadenceWritesDuringRun) {
  const std::string base = "test_model_session_cadence.ck";
  Session s(SessionConfig{}
                .with_ne(2)
                .with_levels(4, 1)
                .with_checkpoints(base, 2));
  s.run(4);
  const homme::State gold = s.state();

  // The step-4 checkpoint is on disk; a fresh session resumes from it.
  Session t(SessionConfig{}.with_ne(2).with_levels(4, 1));
  t.restore(base);
  EXPECT_EQ(t.step_count(), 4);
  expect_states_equal(t.state(), gold);
  std::remove(homme::checkpoint_rank_path(base, 0).c_str());
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
