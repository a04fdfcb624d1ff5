// svc::Engine + svc::BoundedQueue: backpressure, cancellation, deadline,
// fault isolation (a Faulted member must not poison its worker), shared
// mesh bundles, and bit-identical results at any worker count.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "homme/checkpoint.hpp"
#include "svc/engine.hpp"
#include "svc/queue.hpp"
#include "svc/server.hpp"
#include "sw/fault.hpp"

namespace {

using svc::BoundedQueue;
using svc::Engine;
using svc::EngineConfig;
using svc::RunRequest;
using svc::RunState;
using svc::RunTicket;

model::SessionConfig tiny_config(int remap_freq = 3) {
  return model::SessionConfig{}.with_ne(2).with_levels(4, 1).with_remap_freq(
      remap_freq);
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

TEST(BoundedQueue, PriorityAndFifoWithinPriority) {
  BoundedQueue<int> q(8);
  ASSERT_EQ(q.push(10, /*priority=*/0), BoundedQueue<int>::Push::kOk);
  ASSERT_EQ(q.push(20, /*priority=*/5), BoundedQueue<int>::Push::kOk);
  ASSERT_EQ(q.push(11, /*priority=*/0), BoundedQueue<int>::Push::kOk);
  ASSERT_EQ(q.push(21, /*priority=*/5), BoundedQueue<int>::Push::kOk);
  EXPECT_EQ(q.pop(), 20);  // highest priority first
  EXPECT_EQ(q.pop(), 21);  // FIFO within a priority
  EXPECT_EQ(q.pop(), 10);
  EXPECT_EQ(q.pop(), 11);
}

TEST(BoundedQueue, NonBlockingPushReportsFull) {
  BoundedQueue<int> q(2);
  EXPECT_EQ(q.push(1, 0, /*block=*/false), BoundedQueue<int>::Push::kOk);
  EXPECT_EQ(q.push(2, 0, /*block=*/false), BoundedQueue<int>::Push::kOk);
  EXPECT_EQ(q.push(3, 0, /*block=*/false), BoundedQueue<int>::Push::kFull);
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.high_water(), 2u);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.push(3, 0, /*block=*/false), BoundedQueue<int>::Push::kOk);
}

TEST(BoundedQueue, BlockingPushWaitsForSpace) {
  BoundedQueue<int> q(1);
  ASSERT_EQ(q.push(1, 0), BoundedQueue<int>::Push::kOk);
  std::thread producer(
      [&] { EXPECT_EQ(q.push(2, 0), BoundedQueue<int>::Push::kOk); });
  // The producer is blocked until this pop frees the slot.
  EXPECT_EQ(q.pop(), 1);
  producer.join();
  EXPECT_EQ(q.pop(), 2);
}

TEST(BoundedQueue, CloseDrainsThenEndsPop) {
  BoundedQueue<int> q(4);
  ASSERT_EQ(q.push(1, 0), BoundedQueue<int>::Push::kOk);
  q.close();
  EXPECT_EQ(q.push(2, 0), BoundedQueue<int>::Push::kClosed);
  EXPECT_EQ(q.pop(), 1);               // drained after close
  EXPECT_EQ(q.pop(), std::nullopt);    // then end-of-stream
}

TEST(SvcEngine, RejectModeThrowsQueueFull) {
  // One worker + a huge first job keeps the queue occupied; capacity 1
  // in reject mode must throw on the overflow submit.
  Engine engine({.workers = 1, .queue_capacity = 1, .reject_when_full = true});
  std::vector<RunTicket> tickets;
  RunRequest big;
  big.config = tiny_config();
  big.steps = 2;
  big.step_stall_s = 0.2;
  tickets.push_back(engine.submit(big));

  bool threw = false;
  for (int i = 0; i < 8; ++i) {
    RunRequest req;
    req.config = tiny_config();
    req.steps = 1;
    try {
      tickets.push_back(engine.submit(req));
    } catch (const svc::QueueFull&) {
      threw = true;
      break;
    }
  }
  EXPECT_TRUE(threw);
  for (auto& t : tickets) t->wait();
  engine.shutdown();
  // The rejection is visible in the stats, and only the accepted
  // submissions count as submitted.
  const svc::EngineStats st = engine.stats();
  EXPECT_GE(st.rejected_full, 1u);
  EXPECT_EQ(st.submitted, tickets.size());
}

TEST(SvcEngine, BlockingBackpressureRunsEverything) {
  Engine engine({.workers = 2, .queue_capacity = 2});
  std::vector<RunTicket> tickets;
  for (int i = 0; i < 8; ++i) {
    RunRequest req;
    req.config = tiny_config();
    req.steps = 1;
    tickets.push_back(engine.submit(req));  // blocks instead of failing
  }
  for (auto& t : tickets) {
    EXPECT_EQ(t->wait().state, RunState::kCompleted);
  }
  const svc::EngineStats st = engine.stats();
  EXPECT_EQ(st.completed, 8u);
  EXPECT_LE(st.queue_high_water, 2u);
  EXPECT_EQ(st.member_steps, 8u);
  engine.shutdown();
}

TEST(SvcEngine, CancelQueuedAndRunning) {
  Engine engine({.workers = 1, .queue_capacity = 8});
  RunRequest slow;
  slow.config = tiny_config();
  slow.steps = 50;
  slow.step_stall_s = 0.05;
  RunTicket running = engine.submit(slow);
  // Wait for the worker to actually start it — otherwise, on a busy (or
  // single-CPU) host, cancel() could land before the pop and terminalize
  // this member as queued-cancelled too.
  while (running->state() == RunState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  RunTicket queued = engine.submit(slow);

  queued->cancel();  // still queued behind the running member
  // The cancel terminalizes a queued-but-unstarted request immediately —
  // no waiting for a worker to pop and discard it.
  EXPECT_EQ(queued->state(), RunState::kCancelled);
  const svc::RunResult& qres = queued->wait();
  EXPECT_EQ(qres.state, RunState::kCancelled);
  EXPECT_EQ(qres.steps_done, 0);

  running->cancel();  // stops at the next step boundary
  const svc::RunResult& rres = running->wait();
  EXPECT_EQ(rres.state, RunState::kCancelled);
  EXPECT_LT(rres.steps_done, slow.steps);

  // Drain first: the queued-cancelled job is only counted once popped.
  engine.shutdown();
  const svc::EngineStats st = engine.stats();
  EXPECT_EQ(st.cancelled, 2u);
  EXPECT_EQ(st.cancelled_queued, 1u);  // only the never-started member
}

TEST(SvcEngine, DeadlineExpiresMidRun) {
  Engine engine({.workers = 1, .queue_capacity = 4});
  RunRequest req;
  req.config = tiny_config();
  req.steps = 1000;
  req.step_stall_s = 0.02;
  req.deadline_s = 0.1;
  RunTicket t = engine.submit(req);
  const svc::RunResult& res = t->wait();
  EXPECT_EQ(res.state, RunState::kDeadline);
  EXPECT_GT(res.steps_done, 0);
  EXPECT_LT(res.steps_done, req.steps);
  engine.shutdown();
}

TEST(SvcEngine, FaultedMemberDoesNotPoisonWorker) {
  Engine engine({.workers = 1, .queue_capacity = 4});

  // An absurd dt blows the state up; the monitor turns that into a
  // ModelBlowup the worker must absorb as a Faulted terminal state.
  RunRequest bad;
  bad.config = tiny_config().with_dt(1.0e9).with_monitor();
  bad.steps = 10;
  RunTicket bad_ticket = engine.submit(bad);

  RunRequest good;
  good.config = tiny_config();
  good.steps = 2;
  RunTicket good_ticket = engine.submit(good);

  const svc::RunResult& bad_res = bad_ticket->wait();
  EXPECT_EQ(bad_res.state, RunState::kFaulted);
  EXPECT_FALSE(bad_res.error.empty());

  // The same (only) worker then completes the next member normally.
  const svc::RunResult& good_res = good_ticket->wait();
  EXPECT_EQ(good_res.state, RunState::kCompleted);
  EXPECT_EQ(good_res.steps_done, 2);
  EXPECT_EQ(good_res.worker, bad_res.worker);

  const svc::EngineStats st = engine.stats();
  EXPECT_EQ(st.faulted, 1u);
  EXPECT_EQ(st.completed, 1u);
  engine.shutdown();
}

TEST(SvcEngine, SharedBundlePerShape) {
  Engine engine({.workers = 2, .queue_capacity = 8});
  std::vector<RunTicket> tickets;
  for (int i = 0; i < 4; ++i) {
    RunRequest req;
    req.config = tiny_config();
    req.steps = 1;
    tickets.push_back(engine.submit(req));
  }
  for (auto& t : tickets) t->wait();
  const svc::EngineStats st = engine.stats();
  EXPECT_EQ(st.mesh_bundles, 1u);  // one shape -> one resident bundle
  EXPECT_GT(st.mesh_bundle_bytes, 0u);
  // Unshared, the 4 members would have paid 4x the resident bytes.
  EXPECT_EQ(st.mesh_bytes_unshared, 4 * st.mesh_bundle_bytes);
  engine.shutdown();
}

/// Final-state digests per member at a given worker count.
std::vector<std::uint32_t> run_ensemble(int workers, int members) {
  Engine engine({.workers = workers, .queue_capacity = 4});
  std::vector<RunTicket> tickets;
  for (int i = 0; i < members; ++i) {
    RunRequest req;
    req.config = tiny_config(/*remap_freq=*/1 + i % 3);
    req.steps = 3;
    req.priority = i % 2;
    tickets.push_back(engine.submit(req));
  }
  std::vector<std::uint32_t> crcs;
  for (auto& t : tickets) {
    const svc::RunResult& res = t->wait();
    EXPECT_EQ(res.state, RunState::kCompleted);
    crcs.push_back(res.state_crc);
  }
  engine.shutdown();
  return crcs;
}

TEST(SvcEngine, DeterministicAcrossWorkerCounts) {
  const int kMembers = 8;
  const auto serial = run_ensemble(1, kMembers);
  const auto parallel = run_ensemble(8, kMembers);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(serial, parallel);
  // Distinct member configs must yield distinct digests (the digest
  // actually depends on the state, not just the shape).
  EXPECT_NE(serial[0], serial[1]);
}

TEST(SvcEngine, ShutdownWithoutDrainCancels) {
  auto engine = std::make_unique<Engine>(
      EngineConfig{.workers = 1, .queue_capacity = 8});
  RunRequest slow;
  slow.config = tiny_config();
  slow.steps = 20;
  slow.step_stall_s = 0.02;
  std::vector<RunTicket> tickets;
  for (int i = 0; i < 3; ++i) tickets.push_back(engine->submit(slow));

  engine->shutdown(/*drain=*/false);
  int cancelled = 0;
  for (auto& t : tickets) {
    if (t->wait().state == RunState::kCancelled) ++cancelled;
  }
  EXPECT_GE(cancelled, 2);  // the queued members never ran
  EXPECT_THROW(engine->submit(slow), std::runtime_error);
}

TEST(SvcEngine, SummaryReportCarriesThroughput) {
  Engine engine({.workers = 2, .queue_capacity = 4});
  for (int i = 0; i < 4; ++i) {
    RunRequest req;
    req.config = tiny_config();
    req.steps = 2;
    engine.submit(req)->wait();
  }
  const obs::Report rep = engine.summary_report();
  const std::string json = rep.json();
  EXPECT_NE(json.find("\"bench\": \"svc_engine\""), std::string::npos);
  EXPECT_NE(json.find("member_steps_per_s"), std::string::npos);
  EXPECT_NE(json.find("worker_utilization"), std::string::npos);
  const svc::EngineStats st = engine.stats();
  EXPECT_EQ(st.member_steps, 8u);
  EXPECT_GT(st.member_steps_per_s(), 0.0);
  engine.shutdown();
}

TEST(SvcEngine, ResumeContinuesFromCheckpointDigestIdentical) {
  const std::string base = ::testing::TempDir() + "svc_resume.ck";
  model::SessionConfig cfg =
      tiny_config().with_checkpoints(base, /*freq=*/2, /*full_interval=*/2);

  // Uninterrupted 10-step reference (checkpointing does not perturb the
  // trajectory, so the plain config gives the same digest).
  std::uint32_t want = 0;
  {
    Engine engine({.workers = 1, .queue_capacity = 4});
    RunRequest ref;
    ref.config = tiny_config();
    ref.steps = 10;
    want = engine.submit(ref)->wait().state_crc;
  }

  Engine engine({.workers = 1, .queue_capacity = 4});
  RunRequest first;
  first.config = cfg;
  first.steps = 4;  // leaves a chain ending at step 4
  EXPECT_EQ(engine.submit(first)->wait().state, RunState::kCompleted);

  RunRequest rest;
  rest.config = cfg;
  rest.steps = 10;  // TOTAL target: only 6 more steps run
  rest.resume = true;
  // Hold the ticket: res refers into the handle, which must outlive the
  // reads below even after the worker drops its own reference.
  const svc::RunTicket ticket = engine.submit(rest);
  const svc::RunResult& res = ticket->wait();
  EXPECT_EQ(res.state, RunState::kCompleted);
  EXPECT_EQ(res.resumed_from, 4);
  EXPECT_EQ(res.steps_done, 6);
  EXPECT_EQ(res.state_crc, want);
  EXPECT_EQ(engine.stats().resumed, 1u);
  engine.shutdown();
  remove_chains(base, 1);
}

TEST(SvcEngine, CheckpointCountersAreExactAtEveryRankCount) {
  // A 12-step, cadence-4 member saves at steps 4, 8 and 12 on each rank;
  // the engine samples its counters after every write has landed.
  for (const int nranks : {1, 2}) {
    const std::string base = ::testing::TempDir() + "svc_counters.ck";
    Engine engine({.workers = 1, .queue_capacity = 4});
    RunRequest req;
    req.config = tiny_config().with_ranks(nranks).with_checkpoints(
        base, /*freq=*/4, /*full_interval=*/2);
    req.steps = 12;
    EXPECT_EQ(engine.submit(req)->wait().state, RunState::kCompleted);
    const svc::EngineStats st = engine.stats();
    EXPECT_EQ(st.checkpoint_saves, 3u * static_cast<unsigned>(nranks))
        << nranks << " ranks";
    EXPECT_GT(st.checkpoint_bytes, 0u);
    engine.shutdown();
    remove_chains(base, nranks);
  }
}

TEST(SvcEngine, FailedCheckpointWriteFaultsTheMember) {
  // The member's one save is at its last step, so the write fails on the
  // writer thread after stepping is done; the engine must still see it.
  for (const int nranks : {1, 2}) {
    Engine engine({.workers = 1, .queue_capacity = 4});
    RunRequest req;
    req.config = tiny_config().with_ranks(nranks).with_checkpoints(
        ::testing::TempDir() + "no_such_dir/member.ck", /*freq=*/4);
    req.steps = 4;
    const svc::RunTicket ticket = engine.submit(req);
    const svc::RunResult& res = ticket->wait();
    EXPECT_EQ(res.state, RunState::kFaulted) << nranks << " ranks";
    EXPECT_NE(res.error.find("checkpoint: cannot open"), std::string::npos)
        << res.error;
    engine.shutdown();
  }
}

TEST(SvcRetry, BackoffScheduleIsDeterministicAndBounded) {
  svc::RetryPolicy policy;
  policy.backoff_base_s = 0.5;
  policy.backoff_max_s = 4.0;
  policy.jitter_frac = 0.25;
  policy.jitter_seed = 42;

  // Pure function of (seed, member, attempt): same inputs, same delay.
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const double a = policy.delay_s("member-a", attempt);
    EXPECT_EQ(a, policy.delay_s("member-a", attempt));
    // Exponential envelope with the jitter band, capped at backoff_max.
    const double nominal = std::min(0.5 * double(1 << (attempt - 1)), 4.0);
    EXPECT_GE(a, nominal * 0.75);
    EXPECT_LE(a, nominal * 1.25);
  }
  // Different members (and different seeds) decorrelate.
  EXPECT_NE(policy.delay_s("member-a", 1), policy.delay_s("member-b", 1));
  svc::RetryPolicy other = policy;
  other.jitter_seed = 43;
  EXPECT_NE(policy.delay_s("member-a", 1), other.delay_s("member-a", 1));
}

TEST(SvcRetry, SameFaultSeedSameScheduleAndDigests) {
  // Two identical servers fed identical fault plans must retry on the
  // same schedule and land on the same final digests — the soak bench's
  // reproducibility contract in miniature.
  auto run_once = [](std::vector<double>* delays) {
    sw::FaultPlan plan(7);
    plan.inject({sw::FaultKind::kMsgDrop, /*target=*/1, /*op_index=*/2});
    model::SessionConfig cfg = tiny_config();
    cfg.with_ranks(2).with_watchdog(0.2);
    cfg.faults = &plan;

    svc::ServerConfig scfg;
    scfg.engine.workers = 2;
    scfg.retry.max_attempts = 3;
    scfg.retry.sleep_scale = 0.0;
    scfg.checkpoint_dir.clear();  // retries restart from step 0
    svc::Server server(scfg);
    server.add_tenant("t", svc::TenantQuota{});
    RunRequest req;
    req.config = cfg;
    req.steps = 6;
    EXPECT_EQ(server.submit("t", "m", req).admission,
              svc::Admission::kAdmitted);
    server.wait_idle();
    const svc::MemberStatus status = server.member("m");
    EXPECT_EQ(status.last_state, RunState::kCompleted);
    EXPECT_EQ(status.attempts, 2);
    *delays = status.retry_delays_s;
    return status.state_crc;
  };

  std::vector<double> delays1, delays2;
  const std::uint32_t crc1 = run_once(&delays1);
  const std::uint32_t crc2 = run_once(&delays2);
  EXPECT_EQ(crc1, crc2);
  ASSERT_EQ(delays1.size(), 1u);
  EXPECT_EQ(delays1, delays2);
}

}  // namespace
