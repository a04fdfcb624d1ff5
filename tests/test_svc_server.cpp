// Service front-end hardening: admission verdicts must follow tenant
// quotas, Faulted members must retry with the deterministic backoff
// schedule and converge to the fault-free digest, a graceful drain must
// park in-flight members at a checkpoint, and a restart must resume them
// to final states bit-identical to an uninterrupted run.

#include "svc/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "homme/checkpoint.hpp"
#include "sw/fault.hpp"

namespace {

using svc::Admission;
using svc::MemberPhase;
using svc::RunRequest;
using svc::RunState;
using svc::Server;
using svc::ServerConfig;
using svc::ServerState;
using svc::TenantQuota;

model::SessionConfig tiny_config(int ne = 2) {
  return model::SessionConfig{}.with_ne(ne).with_levels(4, 1);
}

RunRequest make_request(int steps, model::SessionConfig cfg = tiny_config()) {
  RunRequest req;
  req.config = cfg;
  req.steps = steps;
  return req;
}

/// Fault-free digest of one config run to \p steps on a throwaway engine.
std::uint32_t reference_digest(const model::SessionConfig& cfg, int steps) {
  svc::Engine engine(svc::EngineConfig{});
  RunRequest req;
  req.config = cfg;
  req.steps = steps;
  auto ticket = engine.submit(req);
  const svc::RunResult& res = ticket->wait();
  EXPECT_EQ(res.state, RunState::kCompleted);
  return res.state_crc;
}

ServerConfig fast_retry_config() {
  ServerConfig cfg;
  cfg.engine.workers = 2;
  cfg.retry.max_attempts = 3;
  cfg.retry.sleep_scale = 0.0;  // virtual time: retries fire immediately
  cfg.checkpoint_dir = ::testing::TempDir();
  cfg.checkpoint_freq = 4;
  return cfg;
}

void wait_for_running(const svc::RunTicket& t) {
  while (t->state() == RunState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServerAdmission, VerdictsFollowTenantQuota) {
  ServerConfig cfg;
  cfg.engine.workers = 1;
  cfg.checkpoint_dir.clear();
  Server server(cfg);
  TenantQuota quota;
  quota.max_active = 2;
  quota.soft_active = 1;
  quota.tier = 3;
  quota.throttle_priority = -1;
  server.add_tenant("research", quota);

  // Members long enough to still be active while we probe the quota.
  RunRequest slow = make_request(50);
  slow.step_stall_s = 0.004;

  const auto first = server.submit("research", "m1", slow);
  EXPECT_EQ(first.admission, Admission::kAdmitted);
  EXPECT_EQ(first.priority, 3);
  ASSERT_NE(first.ticket, nullptr);

  const auto second = server.submit("research", "m2", slow);
  EXPECT_EQ(second.admission, Admission::kThrottled);
  EXPECT_EQ(second.priority, -1);
  ASSERT_NE(second.ticket, nullptr);

  const auto third = server.submit("research", "m3", slow);
  EXPECT_EQ(third.admission, Admission::kRejected);
  EXPECT_NE(third.reason.find("hard cap"), std::string::npos);
  EXPECT_EQ(third.ticket, nullptr);

  const auto unknown = server.submit("nobody", "m4", make_request(1));
  EXPECT_EQ(unknown.admission, Admission::kRejected);
  EXPECT_NE(unknown.reason.find("unknown tenant"), std::string::npos);

  const auto duplicate = server.submit("research", "m1", make_request(1));
  EXPECT_EQ(duplicate.admission, Admission::kRejected);
  EXPECT_NE(duplicate.reason.find("already exists"), std::string::npos);

  server.wait_idle();
  // Slots freed on completion: the tenant can admit again.
  const auto after = server.submit("research", "m5", make_request(1));
  EXPECT_EQ(after.admission, Admission::kAdmitted);
  server.wait_idle();
  EXPECT_EQ(server.member("m5").phase, MemberPhase::kDone);
  EXPECT_EQ(server.member("m5").last_state, RunState::kCompleted);
}

TEST(ServerRetry, FaultedParallelMemberRetriesToFaultFreeDigest) {
  model::SessionConfig cfg = tiny_config();
  cfg.with_ranks(2).with_watchdog(0.2);
  const int steps = 8;
  const std::uint32_t want = reference_digest(tiny_config().with_ranks(2),
                                              steps);

  sw::FaultPlan plan(2024);
  plan.inject({sw::FaultKind::kMsgDrop, /*target=*/0, /*op_index=*/3});
  cfg.faults = &plan;

  ServerConfig scfg = fast_retry_config();
  // The retry resumes from the member's rank chains on disk: clear any an
  // earlier run of this binary left behind, so it restarts from step 0.
  for (int r = 0; r < 2; ++r) {
    const std::string rb =
        homme::checkpoint_rank_path(scfg.checkpoint_dir + "/par.ck", r);
    std::remove((rb + ".full").c_str());
    for (int k = 1; std::remove((rb + ".d" + std::to_string(k)).c_str()) == 0;
         ++k) {
    }
  }
  Server server(scfg);
  server.add_tenant("ops", TenantQuota{});
  const auto out = server.submit("ops", "par", make_request(steps, cfg));
  ASSERT_EQ(out.admission, Admission::kAdmitted);
  server.wait_idle();

  const auto status = server.member("par");
  EXPECT_EQ(status.phase, MemberPhase::kDone);
  EXPECT_EQ(status.last_state, RunState::kCompleted);
  EXPECT_EQ(status.attempts, 2);  // one fault, one clean retry
  ASSERT_EQ(status.retry_delays_s.size(), 1u);
  EXPECT_GT(status.retry_delays_s[0], 0.0);
  EXPECT_EQ(status.state_crc, want);
  EXPECT_EQ(server.retries(), 1u);
  EXPECT_EQ(plan.fired_count(), 1u);  // the spec fired once, ever
  EXPECT_GE(server.engine_stats().faulted, 1u);
}

TEST(ServerRetry, PersistentBlowupExhaustsBoundedAttempts) {
  // A CFL-violating dt blows up the monitor on every attempt — the
  // member must stop at max_attempts, not retry forever.
  model::SessionConfig cfg = tiny_config();
  cfg.with_dt(50000.0).with_monitor();

  ServerConfig scfg = fast_retry_config();
  scfg.retry.max_attempts = 2;
  Server server(scfg);
  server.add_tenant("ops", TenantQuota{});
  const auto out = server.submit("ops", "doomed", make_request(20, cfg));
  ASSERT_EQ(out.admission, Admission::kAdmitted);
  server.wait_idle();

  const auto status = server.member("doomed");
  EXPECT_EQ(status.phase, MemberPhase::kDone);
  EXPECT_EQ(status.last_state, RunState::kFaulted);
  EXPECT_EQ(status.attempts, 2);
  EXPECT_EQ(status.retry_delays_s.size(), 1u);
  EXPECT_FALSE(status.error.empty());
  EXPECT_GE(server.engine_stats().faulted, 2u);
}

TEST(ServerLifecycle, DrainParksRunningMemberAndRestartResumesDigest) {
  const int steps = 60;
  const std::uint32_t want = reference_digest(tiny_config(), steps);

  ServerConfig scfg = fast_retry_config();
  Server server(scfg);
  server.add_tenant("ops", TenantQuota{});
  RunRequest slow = make_request(steps);
  slow.step_stall_s = 0.01;  // ~600 ms total: drain lands mid-run
  const auto out = server.submit("ops", "longrun", slow);
  ASSERT_EQ(out.admission, Admission::kAdmitted);
  wait_for_running(out.ticket);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  server.drain();
  EXPECT_EQ(server.state(), ServerState::kStopped);
  const auto parked = server.member("longrun");
  ASSERT_EQ(parked.phase, MemberPhase::kParked);
  EXPECT_EQ(parked.last_state, RunState::kCancelled);

  // A stopped server admits nothing.
  const auto refused = server.submit("ops", "late", make_request(1));
  EXPECT_EQ(refused.admission, Admission::kRejected);
  EXPECT_NE(refused.reason.find("not admitting"), std::string::npos);

  server.restart();
  EXPECT_EQ(server.state(), ServerState::kAdmitting);
  server.wait_idle();

  const auto status = server.member("longrun");
  EXPECT_EQ(status.phase, MemberPhase::kDone);
  EXPECT_EQ(status.last_state, RunState::kCompleted);
  EXPECT_EQ(status.restarts, 1);
  EXPECT_GT(status.resumed_from, 0);  // continued, not re-run from 0
  EXPECT_EQ(status.state_crc, want);
  EXPECT_EQ(server.restarts(), 1u);
  EXPECT_GE(server.engine_stats().resumed, 1u);
}

TEST(ServerLifecycle, DrainIsIdempotentAndDestructionIsClean) {
  ServerConfig scfg = fast_retry_config();
  auto server = std::make_unique<Server>(scfg);
  server->add_tenant("ops", TenantQuota{});
  server->submit("ops", "quick", make_request(2));
  server->drain();
  server->drain();  // second drain is a no-op
  EXPECT_EQ(server->state(), ServerState::kStopped);
  server.reset();   // dtor on a stopped server must not hang
}

TEST(ServerMetrics, SnapshotCarriesPhaseTenantAndEngineCounters) {
  ServerConfig scfg = fast_retry_config();
  Server server(scfg);
  TenantQuota quota;
  quota.max_active = 1;
  server.add_tenant("batch", quota);
  server.submit("batch", "a", make_request(2));
  const auto rejected = server.submit("batch", "b", make_request(2));
  EXPECT_EQ(rejected.admission, Admission::kRejected);
  server.wait_idle();

  const std::string json = server.metrics().json();
  EXPECT_NE(json.find("\"members\""), std::string::npos);
  EXPECT_NE(json.find("\"batch\""), std::string::npos);

  const std::string flat = server.metrics_flat();
  // The rejected submission never became a member record.
  EXPECT_NE(flat.find("swcam.members.total 1"), std::string::npos);
  EXPECT_NE(flat.find("swcam.members.done 1"), std::string::npos);
  EXPECT_NE(flat.find("swcam.tenants.batch.admitted 1"), std::string::npos);
  EXPECT_NE(flat.find("swcam.tenants.batch.rejected 1"), std::string::npos);
  EXPECT_NE(flat.find("swcam.engine.completed 1"), std::string::npos);
  // Flat lines are numeric-only: the state string stays in the JSON form.
  EXPECT_EQ(flat.find("swcam.state"), std::string::npos);

  // Stats survive a drain: the retired accumulator keeps the totals.
  server.drain();
  EXPECT_GE(server.engine_stats().completed, 1u);
  EXPECT_NE(server.metrics_flat().find("swcam.engine.completed 1"),
            std::string::npos);
}

// The server's engine block writes every EngineStats field, so the flat
// metrics carry the mesh and COW-state accounting too.
TEST(ServerMetrics, FlatMetricsCarryEveryEngineField) {
  ServerConfig scfg;
  scfg.engine.workers = 1;
  scfg.checkpoint_dir.clear();
  Server server(scfg);
  server.add_tenant("ops", TenantQuota{});
  server.submit("ops", "m", make_request(2));
  server.wait_idle();
  const std::string flat = server.metrics_flat();
  EXPECT_NE(flat.find("swcam.engine.mesh_bundles 1\n"), std::string::npos)
      << flat;
  EXPECT_NE(flat.find("swcam.engine.state_samples 1\n"), std::string::npos)
      << flat;
}

}  // namespace
