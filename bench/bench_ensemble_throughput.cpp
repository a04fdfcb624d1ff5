// Ensemble throughput through the svc:: engine: N ne4 members, each a
// model::Session sharing one immutable MeshBundle, multiplexed over a
// fixed worker pool at 1/2/4/8 workers.
//
// What this measures honestly: each member-step pairs a short dynamics
// step with a modeled coupler / data-ingest stall (--latency-us, the
// blocking I/O every real ensemble member pays between steps). The
// worker pool exists to overlap exactly that stall, so member-steps/s
// must rise strictly from 1 to 4 workers even on one core; on a
// multi-core host the compute overlaps too. The 8-worker sweep point
// doubles as the determinism probe: every member's final-state CRC must
// equal its 1-worker digest bit for bit.
//
// Two more phases exercise the copy-on-write field store underneath:
//
//   fork scaling   one warm parent Session is fork()ed into 32/256/1024
//                  members; each fork aliases every state chunk, so the
//                  resident bytes/member at fork time collapse versus the
//                  private-state (logical) cost. Every fork then runs a
//                  step on a small thread pool — first writes un-share
//                  chunk by chunk — and sharing is re-measured after.
//
//   checkpointing  one session saves every step through the async delta
//                  writer (a full image every --ckpt-interval saves,
//                  dirty-chunk records between), then restores the chain
//                  and verifies it is bit-identical to the live state.
//
// Flags (bench_common.hpp): --json --trace --small --steps --ne
//   --workers N       run the sweep {1, N} instead of {1,2,4,8}
//   --members N       ensemble size (default 32)
//   --latency-us      modeled per-step stall (default 40000)
//   --ckpt-interval K full checkpoint every K saves (default 4)

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "homme/checkpoint.hpp"
#include "model/session.hpp"
#include "obs/report.hpp"
#include "svc/engine.hpp"

namespace {

struct SweepPoint {
  int workers = 0;
  double wall_s = 0.0;
  double member_steps_per_s = 0.0;
  double utilization = 0.0;
  std::size_t queue_high_water = 0;
  std::uint64_t completed = 0;
  std::uint64_t faulted = 0;
  std::size_t mesh_bundle_bytes = 0;
  std::size_t mesh_bytes_unshared = 0;
  std::vector<std::uint32_t> crcs;  ///< per member index
};

struct EnsembleSpec {
  int ne = 4;
  int nlev = 4;
  int qsize = 1;
  int members = 32;
  int steps = 3;
  double stall_s = 0.040;
};

model::SessionConfig member_config(const EnsembleSpec& spec, int i) {
  // Members differ in remap cadence so each carries a distinct final
  // state — a per-member digest, not one digest repeated N times.
  return model::SessionConfig{}
      .with_ne(spec.ne)
      .with_levels(spec.nlev, spec.qsize)
      .with_remap_freq(1 + i % 3);
}

SweepPoint run_sweep_point(const EnsembleSpec& spec, int workers) {
  svc::Engine engine(
      {.workers = workers, .queue_capacity = 8, .reject_when_full = false});
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<svc::RunTicket> tickets;
  tickets.reserve(static_cast<std::size_t>(spec.members));
  for (int i = 0; i < spec.members; ++i) {
    svc::RunRequest req;
    req.config = member_config(spec, i);
    req.steps = spec.steps;
    req.priority = i % 3;
    req.step_stall_s = spec.stall_s;
    tickets.push_back(engine.submit(std::move(req)));  // blocks when full
  }

  SweepPoint pt;
  pt.workers = workers;
  for (auto& t : tickets) {
    const svc::RunResult& res = t->wait();
    pt.crcs.push_back(res.state_crc);
    if (res.state == svc::RunState::kFaulted)
      std::fprintf(stderr, "member %llu faulted: %s\n",
                   static_cast<unsigned long long>(t->id()),
                   res.error.c_str());
  }
  pt.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const svc::EngineStats st = engine.stats();
  pt.member_steps_per_s =
      pt.wall_s > 0.0 ? static_cast<double>(st.member_steps) / pt.wall_s : 0.0;
  pt.utilization = st.utilization();
  pt.queue_high_water = st.queue_high_water;
  pt.completed = st.completed;
  pt.faulted = st.faulted;
  pt.mesh_bundle_bytes = st.mesh_bundle_bytes;
  pt.mesh_bytes_unshared = st.mesh_bytes_unshared;
  engine.shutdown();
  return pt;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// -- fork scaling ------------------------------------------------------------

struct ForkPoint {
  int members = 0;
  int steps = 0;
  double fork_s = 0.0;  ///< wall time to fork all members
  std::size_t logical_bytes_per_member = 0;   ///< private-state cost
  std::size_t resident_bytes_per_member = 0;  ///< COW cost at fork time
  double reduction_x = 0.0;                   ///< logical / resident
  double cow_shared_fraction = 0.0;           ///< at fork time
  double post_step_resident_bytes_per_member = 0.0;
  double post_step_shared_fraction = 0.0;
  double member_steps_per_s = 0.0;  ///< stepping the forks on a pool
};

ForkPoint run_fork_point(const model::Session& parent, int members,
                         int steps) {
  ForkPoint pt;
  pt.members = members;
  pt.steps = steps;

  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<model::Session>> forks;
  forks.reserve(static_cast<std::size_t>(members));
  for (int i = 0; i < members; ++i) forks.push_back(parent.fork());
  pt.fork_s = seconds_since(t0);

  homme::StoreStats at_fork;
  for (const auto& f : forks) at_fork += f->store_stats();
  const auto per = [&](std::size_t total) {
    return total / static_cast<std::size_t>(members);
  };
  pt.logical_bytes_per_member = per(at_fork.logical_bytes);
  pt.resident_bytes_per_member = per(at_fork.resident_bytes);
  pt.reduction_x =
      at_fork.resident_bytes > 0
          ? static_cast<double>(at_fork.logical_bytes) /
                static_cast<double>(at_fork.resident_bytes)
          : 0.0;
  pt.cow_shared_fraction = at_fork.shared_fraction();

  // Step every fork on a small pool: the writes un-share dynamics chunks
  // (phis stays aliased), and concurrent COW on shared buffers is exactly
  // the contract the chunk refcounts exist for.
  const unsigned pool =
      std::clamp(std::thread::hardware_concurrency(), 2u, 8u);
  std::atomic<int> next{0};
  t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(pool);
  for (unsigned t = 0; t < pool; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= members) return;
        for (int s = 0; s < steps; ++s)
          forks[static_cast<std::size_t>(i)]->step();
      }
    });
  }
  for (auto& t : threads) t.join();
  const double step_s = seconds_since(t0);
  pt.member_steps_per_s =
      step_s > 0.0 ? static_cast<double>(members) * steps / step_s : 0.0;

  homme::StoreStats after;
  for (const auto& f : forks) after += f->store_stats();
  pt.post_step_resident_bytes_per_member =
      static_cast<double>(after.resident_bytes) / members;
  pt.post_step_shared_fraction = after.shared_fraction();
  return pt;
}

// -- delta checkpointing -----------------------------------------------------

struct CkptResult {
  int full_interval = 0;
  int steps = 0;
  std::uint64_t saves = 0, fulls = 0, deltas = 0;
  std::uint64_t bytes_written = 0;
  double bytes_per_step = 0.0;
  std::size_t full_image_bytes = 0;  ///< on-disk size of "<base>.r0.full"
  double avg_delta_bytes = 0.0;
  double dirty_chunk_fraction = 0.0;  ///< chunks written / chunk slots
  std::uint64_t blocked_saves = 0;
  bool restore_ok = false;  ///< chain restore bit-identical to live state
};

CkptResult run_checkpoint_phase(const EnsembleSpec& spec, int full_interval,
                                int steps) {
  namespace fs = std::filesystem;
  const std::string base =
      (fs::temp_directory_path() /
       ("swcam_ens_ckpt_" + std::to_string(::getpid())))
          .string();

  CkptResult r;
  r.full_interval = full_interval;
  r.steps = steps;
  {
    model::Session session(member_config(spec, 0).with_checkpoints(
        base, /*freq=*/1, full_interval));
    session.run(steps);  // one async delta-chain save per step

    // Digest of the live state, then restore the chain over it: the last
    // save was at the final step, so the round trip must be bit-exact.
    auto digest = [](const homme::State& s) {
      const auto crcs = homme::chunk_crcs(s);
      return homme::crc32(crcs.data(), crcs.size() * sizeof(std::uint32_t));
    };
    const std::uint32_t live = digest(session.state());
    r.restore_ok =
        session.try_resume() && digest(session.state()) == live;

    const auto st = session.checkpoint_stats();
    r.saves = st.saves;
    r.fulls = st.fulls;
    r.deltas = st.deltas;
    r.bytes_written = st.bytes_written;
    r.bytes_per_step = steps > 0
                           ? static_cast<double>(st.bytes_written) / steps
                           : 0.0;
    r.blocked_saves = st.blocked_saves;
    r.dirty_chunk_fraction =
        st.chunk_slots > 0
            ? static_cast<double>(st.chunks_written) /
                  static_cast<double>(st.chunk_slots)
            : 0.0;
  }
  const std::string chain = homme::checkpoint_rank_path(base, 0);
  std::error_code ec;
  r.full_image_bytes =
      static_cast<std::size_t>(fs::file_size(chain + ".full", ec));
  if (r.deltas > 0 && r.bytes_written > r.fulls * r.full_image_bytes) {
    r.avg_delta_bytes =
        static_cast<double>(r.bytes_written -
                            r.fulls * r.full_image_bytes) /
        static_cast<double>(r.deltas);
  }
  fs::remove(chain + ".full", ec);
  for (int k = 1; fs::remove(chain + ".d" + std::to_string(k), ec); ++k) {
  }
  return r;
}

bool monotonic_1_to_4(const std::vector<SweepPoint>& sweep) {
  double prev = 0.0;
  bool ok = true;
  for (const auto& pt : sweep) {
    if (pt.workers > 4) break;
    ok = ok && pt.member_steps_per_s > prev;
    prev = pt.member_steps_per_s;
  }
  return ok;
}

bool bit_identical(const std::vector<SweepPoint>& sweep) {
  for (const auto& pt : sweep)
    if (pt.crcs != sweep.front().crcs) return false;
  return true;
}

bool write_json(const std::string& path, const EnsembleSpec& spec,
                const std::vector<SweepPoint>& sweep,
                const std::vector<ForkPoint>& forks, const CkptResult& ckpt,
                svc::Engine& probe) {
  obs::Report rep("ensemble_throughput");
  rep.config()
      .set("ne", spec.ne)
      .set("nlev", spec.nlev)
      .set("qsize", spec.qsize)
      .set("members", spec.members)
      .set("steps", spec.steps)
      .set("latency_us", spec.stall_s * 1e6);
  obs::Json& records = rep.root().arr("sweep");
  for (const auto& pt : sweep) {
    records.push()
        .set("workers", pt.workers)
        .set("wall_s", pt.wall_s)
        .set("member_steps_per_s", pt.member_steps_per_s)
        .set("speedup_vs_1", pt.member_steps_per_s /
                                 sweep.front().member_steps_per_s)
        .set("worker_utilization", pt.utilization)
        .set("queue_high_water",
             static_cast<std::int64_t>(pt.queue_high_water))
        .set("completed", static_cast<std::int64_t>(pt.completed))
        .set("faulted", static_cast<std::int64_t>(pt.faulted))
        .set("mesh_bundle_bytes",
             static_cast<std::int64_t>(pt.mesh_bundle_bytes))
        .set("mesh_bytes_unshared",
             static_cast<std::int64_t>(pt.mesh_bytes_unshared));
  }
  obs::Json& fork_records = rep.root().arr("fork_scaling");
  for (const auto& pt : forks) {
    fork_records.push()
        .set("members", pt.members)
        .set("steps", pt.steps)
        .set("fork_s", pt.fork_s)
        .set("logical_bytes_per_member",
             static_cast<std::int64_t>(pt.logical_bytes_per_member))
        .set("resident_bytes_per_member",
             static_cast<std::int64_t>(pt.resident_bytes_per_member))
        .set("reduction_x", pt.reduction_x)
        .set("cow_shared_fraction", pt.cow_shared_fraction)
        .set("post_step_resident_bytes_per_member",
             pt.post_step_resident_bytes_per_member)
        .set("post_step_shared_fraction", pt.post_step_shared_fraction)
        .set("member_steps_per_s", pt.member_steps_per_s);
  }
  rep.root()
      .obj("checkpoint")
      .set("full_interval", ckpt.full_interval)
      .set("steps", ckpt.steps)
      .set("saves", static_cast<std::int64_t>(ckpt.saves))
      .set("fulls", static_cast<std::int64_t>(ckpt.fulls))
      .set("deltas", static_cast<std::int64_t>(ckpt.deltas))
      .set("bytes_written", static_cast<std::int64_t>(ckpt.bytes_written))
      .set("bytes_per_step", ckpt.bytes_per_step)
      .set("full_image_bytes",
           static_cast<std::int64_t>(ckpt.full_image_bytes))
      .set("avg_delta_bytes", ckpt.avg_delta_bytes)
      .set("dirty_chunk_fraction", ckpt.dirty_chunk_fraction)
      .set("blocked_saves", static_cast<std::int64_t>(ckpt.blocked_saves))
      .set("restore_ok", ckpt.restore_ok);
  // The headline COW metrics at the largest fork count, mirrored at the
  // root so report tooling can gate on them without digging into arrays.
  const ForkPoint& widest = forks.back();
  rep.root()
      .set("throughput_monotonic_1_to_4", monotonic_1_to_4(sweep))
      .set("bit_identical_across_worker_counts", bit_identical(sweep))
      .set("resident_bytes_per_member",
           static_cast<std::int64_t>(widest.resident_bytes_per_member))
      .set("cow_shared_fraction", widest.cow_shared_fraction)
      .set("checkpoint_bytes_per_step", ckpt.bytes_per_step);
  // A live engine's aggregate telemetry, so downstream tooling sees the
  // fields svc::Engine::summary_report also emits.
  probe.stats().write(rep.root().obj("engine_summary"));
  return rep.write(path);
}

void print_table(const EnsembleSpec& spec,
                 const std::vector<SweepPoint>& sweep) {
  std::printf(
      "\n=== Ensemble throughput: %d ne%d members x %d steps "
      "(stall %.0f us/step) ===\n",
      spec.members, spec.ne, spec.steps, spec.stall_s * 1e6);
  std::printf("%8s %10s %16s %10s %8s %10s\n", "workers", "wall_s",
              "member-steps/s", "speedup", "util", "queue_hw");
  for (const auto& pt : sweep)
    std::printf("%8d %10.3f %16.2f %9.2fx %7.0f%% %10zu\n", pt.workers,
                pt.wall_s, pt.member_steps_per_s,
                pt.member_steps_per_s / sweep.front().member_steps_per_s,
                pt.utilization * 100.0, pt.queue_high_water);
  std::printf("shared mesh: %zu bytes resident vs %zu unshared (%.1fx)\n",
              sweep.back().mesh_bundle_bytes,
              sweep.back().mesh_bytes_unshared,
              sweep.back().mesh_bundle_bytes
                  ? static_cast<double>(sweep.back().mesh_bytes_unshared) /
                        static_cast<double>(sweep.back().mesh_bundle_bytes)
                  : 0.0);
  std::printf("member-steps/s strictly increasing 1->4 workers: %s\n",
              monotonic_1_to_4(sweep) ? "yes" : "NO");
  std::printf("final states bit-identical across worker counts: %s\n\n",
              bit_identical(sweep) ? "yes" : "NO");
}

void print_fork_table(const std::vector<ForkPoint>& forks) {
  std::printf("=== COW fork scaling (one warm parent, fork + 1 step) ===\n");
  std::printf("%8s %10s %14s %14s %10s %9s %16s\n", "members", "fork_s",
              "logical/B", "resident/B", "reduce", "shared", "member-steps/s");
  for (const auto& pt : forks) {
    std::printf("%8d %10.4f %14zu %14zu %9.1fx %8.1f%% %16.1f\n", pt.members,
                pt.fork_s, pt.logical_bytes_per_member,
                pt.resident_bytes_per_member, pt.reduction_x,
                pt.cow_shared_fraction * 100.0, pt.member_steps_per_s);
  }
  std::printf("after stepping: %.0f resident B/member, %.1f%% still shared\n\n",
              forks.back().post_step_resident_bytes_per_member,
              forks.back().post_step_shared_fraction * 100.0);
}

void print_ckpt_table(const CkptResult& r) {
  std::printf("=== Delta checkpoints (save every step, full every %d) ===\n",
              r.full_interval);
  std::printf(
      "%llu saves (%llu full + %llu delta) over %d steps: "
      "%.0f B/step vs %zu B full image (%.1fx), "
      "avg delta %.0f B, %.1f%% chunks dirty, %llu blocked saves\n",
      static_cast<unsigned long long>(r.saves),
      static_cast<unsigned long long>(r.fulls),
      static_cast<unsigned long long>(r.deltas), r.steps, r.bytes_per_step,
      r.full_image_bytes,
      r.bytes_per_step > 0.0
          ? static_cast<double>(r.full_image_bytes) / r.bytes_per_step
          : 0.0,
      r.avg_delta_bytes, r.dirty_chunk_fraction * 100.0,
      static_cast<unsigned long long>(r.blocked_saves));
  std::printf("chain restore bit-identical to live state: %s\n\n",
              r.restore_ok ? "yes" : "NO");
}

void register_benchmarks(const std::vector<SweepPoint>& sweep) {
  for (const auto& pt : sweep) {
    const double wall = pt.wall_s;
    const double rate = pt.member_steps_per_s;
    auto* b = benchmark::RegisterBenchmark(
        ("ensemble/workers:" + std::to_string(pt.workers)).c_str(),
        [wall, rate](benchmark::State& state) {
          for (auto _ : state) state.SetIterationTime(wall);
          state.counters["member_steps_per_s"] = rate;
        });
    b->UseManualTime()->Iterations(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::BenchOptions::parse(argc, argv);

  EnsembleSpec spec;
  spec.ne = opts.ne_or(4);
  spec.members = opts.members_or(opts.small ? 8 : 32);
  spec.steps = opts.steps_or(opts.small ? 2 : 3);
  spec.stall_s = opts.latency_us_or(40000) * 1e-6;

  std::vector<int> worker_counts{1, 2, 4, 8};
  if (opts.workers > 0)
    worker_counts = opts.workers > 1 ? std::vector<int>{1, opts.workers}
                                     : std::vector<int>{1};
  else if (opts.small)
    worker_counts = {1, 2};

  std::vector<SweepPoint> sweep;
  for (int w : worker_counts) sweep.push_back(run_sweep_point(spec, w));

  print_table(spec, sweep);

  // Fork-scaling phase: one warm parent, COW-forked out to kilomember
  // scale. The counts always reach 1024 — forks are refcount bumps, and
  // each ne4 member steps once, so even the CI smoke run affords it.
  std::vector<int> fork_counts{32, 256, 1024};
  if (spec.members > 0 &&
      std::find(fork_counts.begin(), fork_counts.end(), spec.members) ==
          fork_counts.end()) {
    fork_counts.insert(fork_counts.begin(), spec.members);
    std::sort(fork_counts.begin(), fork_counts.end());
  }
  std::vector<ForkPoint> forks;
  {
    model::Session parent(member_config(spec, 0));
    parent.step();  // warm: stage buffers exist, remap cadence underway
    for (int n : fork_counts)
      forks.push_back(run_fork_point(parent, n, /*steps=*/1));
  }
  print_fork_table(forks);

  const CkptResult ckpt = run_checkpoint_phase(
      spec, opts.ckpt_interval_or(4), std::max(spec.steps, 8));
  print_ckpt_table(ckpt);

  if (!opts.json_path.empty()) {
    // A throwaway engine re-runs a 2-member slice so the JSON carries a
    // live engine summary_report alongside the sweep records.
    svc::Engine probe({.workers = 1, .queue_capacity = 4});
    for (int i = 0; i < 2; ++i) {
      svc::RunRequest req;
      req.config = member_config(spec, i);
      req.steps = 1;
      probe.submit(std::move(req))->wait();
    }
    if (!write_json(opts.json_path, spec, sweep, forks, ckpt, probe))
      return 1;
  }

  register_benchmarks(sweep);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
