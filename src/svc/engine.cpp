#include "svc/engine.hpp"

#include "homme/checkpoint.hpp"

namespace svc {

namespace {

const char* backend_name(model::SessionConfig::Backend b) {
  return b == model::SessionConfig::Backend::kPipeline ? "pipeline" : "host";
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

std::string_view to_string(RunState s) {
  switch (s) {
    case RunState::kQueued: return "queued";
    case RunState::kRunning: return "running";
    case RunState::kCompleted: return "completed";
    case RunState::kFaulted: return "faulted";
    case RunState::kCancelled: return "cancelled";
    case RunState::kDeadline: return "deadline";
  }
  return "?";
}

// -- RunHandle ---------------------------------------------------------------

void RunHandle::cancel() {
  cancel_.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == RunState::kQueued) {
    state_ = RunState::kCancelled;
    result_.state = RunState::kCancelled;
    result_.error = "cancelled before execution";
    cv_.notify_all();
  }
}

const RunResult& RunHandle::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return is_terminal(state_); });
  return result_;
}

bool RunHandle::begin_running(int worker) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != RunState::kQueued) return false;
  state_ = RunState::kRunning;
  result_.worker = worker;
  return true;
}

void RunHandle::finish(RunResult res) {
  std::lock_guard<std::mutex> lock(mu_);
  result_ = std::move(res);
  state_ = result_.state;
  cv_.notify_all();
}

// -- Engine ------------------------------------------------------------------

Engine::Engine(EngineConfig cfg)
    : cfg_(cfg),
      queue_(cfg.queue_capacity),
      epoch_(std::chrono::steady_clock::now()) {
  if (cfg_.workers < 1) {
    throw model::ConfigError("EngineConfig: workers must be >= 1");
  }
  if (cfg_.queue_capacity < 1) {
    throw model::ConfigError("EngineConfig: queue_capacity must be >= 1");
  }
  counters_.workers = cfg_.workers;
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int w = 0; w < cfg_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

Engine::~Engine() { shutdown(/*drain=*/true); }

std::shared_ptr<const model::MeshBundle> Engine::bundle(int ne, int nranks,
                                                        double radius) {
  const auto key = std::make_tuple(ne, nranks, radius);
  {
    std::lock_guard<std::mutex> lock(bundles_mu_);
    auto it = bundles_.find(key);
    if (it != bundles_.end()) return it->second;
  }
  // Build outside the lock (construction is the expensive part), then
  // keep whichever copy won the race so every member shares one.
  auto built = model::MeshBundle::build(ne, nranks, radius);
  std::lock_guard<std::mutex> lock(bundles_mu_);
  auto [it, inserted] = bundles_.emplace(key, std::move(built));
  return it->second;
}

RunTicket Engine::submit(RunRequest req) {
  Job job;
  if (!req.scenario.empty()) {
    // Resolve the named workload before validation so an unknown name
    // surfaces as scenario::NotFound at the submit site, not on a
    // worker. The resolved pointer rides with the job for forcing and
    // invariant checks during execution.
    const scenario::Scenario& sc = scenario::get(req.scenario);
    req.config = sc.config(req.overrides, req.member);
    job.scenario_def = &sc;
  }
  req.config.validate();
  if (req.steps < 0) {
    throw model::ConfigError("RunRequest: steps must be >= 0");
  }
  job.handle = RunTicket(new RunHandle(
      next_id_.fetch_add(1, std::memory_order_relaxed)));
  job.bundle = bundle(req.config.ne, req.config.nranks, req.config.radius);
  const std::size_t bundle_bytes = job.bundle->bytes();
  job.request = std::move(req);
  job.submitted = std::chrono::steady_clock::now();
  RunTicket ticket = job.handle;

  const int priority = job.request.priority;
  const auto pushed = queue_.push(std::move(job), priority,
                                  /*block=*/!cfg_.reject_when_full);
  if (pushed == BoundedQueue<Job>::Push::kClosed) {
    throw std::runtime_error("svc::Engine: submit after shutdown");
  }
  if (pushed == BoundedQueue<Job>::Push::kFull) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.rejected_full;
    throw QueueFull("svc::Engine: submission queue is full (" +
                    std::to_string(queue_.capacity()) + " pending)");
  }
  // Accounting only after a successful push: a rejected request must not
  // leak into the unshared-bytes or submitted counters.
  {
    std::lock_guard<std::mutex> lock(bundles_mu_);
    bytes_unshared_ += bundle_bytes;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.submitted;
  }
  return ticket;
}

void Engine::shutdown(bool drain) {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  if (!drain) discard_.store(true, std::memory_order_relaxed);
  queue_.close();
  for (auto& t : workers_) t.join();
  workers_.clear();
}

void Engine::set_member_hook(
    std::function<void(std::uint64_t, RunState)> hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  member_hook_ = std::move(hook);
}

void Engine::notify_terminal(std::uint64_t id, RunState s) {
  std::function<void(std::uint64_t, RunState)> hook;
  {
    std::lock_guard<std::mutex> lock(hook_mu_);
    hook = member_hook_;
  }
  if (hook) hook(id, s);
}

void Engine::worker_loop(int worker) {
  while (auto job = queue_.pop()) {
    if (discard_.load(std::memory_order_relaxed)) {
      job->handle->cancel();
    }
    if (!job->handle->begin_running(worker)) {
      // Cancelled while queued: the handle is already terminal.
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++counters_.cancelled;
        ++counters_.cancelled_queued;
      }
      notify_terminal(job->handle->id(), RunState::kCancelled);
      continue;
    }
    execute(*job, worker);
  }
}

void Engine::execute(Job& job, int worker) {
  RunHandle& h = *job.handle;
  const auto t0 = std::chrono::steady_clock::now();
  const RunRequest& req = job.request;

  RunResult res;
  res.worker = worker;
  res.queue_wait_s =
      std::chrono::duration<double>(t0 - job.submitted).count();
  res.state = RunState::kCompleted;

  homme::StoreStats store{};
  homme::AsyncCheckpointWriter::Stats ckpt{};
  bool sampled = false;

  try {
    model::Session session(req.config, job.bundle);
    if (req.resume && session.try_resume()) {
      res.resumed_from = session.step_count();
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++counters_.resumed;
    }
    // Seeding forcing events (start 0) fire before the first step of a
    // fresh member; a resumed member restarts mid-schedule.
    if (job.scenario_def != nullptr && session.step_count() == 0) {
      scenario::fire_forcing(*job.scenario_def, session, 0);
    }
    // steps is the total target, so a resumed member runs only the
    // remainder; a fresh session starts at step_count 0 and this loop
    // degenerates to the plain fixed-budget form.
    while (session.step_count() < req.steps) {
      if (h.cancel_requested()) {
        res.state = RunState::kCancelled;
        break;
      }
      if (req.deadline_s > 0.0 &&
          seconds_since(job.submitted) > req.deadline_s) {
        res.state = RunState::kDeadline;
        break;
      }
      session.step();
      if (job.scenario_def != nullptr) {
        scenario::fire_forcing(*job.scenario_def, session,
                               session.step_count());
      }
      session.maybe_checkpoint();
      ++res.steps_done;
      if (req.step_stall_s > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(req.step_stall_s));
      }
    }
    // A completed scenario member must satisfy its scenario's declared
    // invariants — a violation is a fault, same as a throw mid-run.
    if (res.state == RunState::kCompleted && job.scenario_def != nullptr) {
      if (auto why = scenario::check_invariants(*job.scenario_def, session)) {
        res.state = RunState::kFaulted;
        res.error = "invariant violation: " + *why;
      }
    }
    if (res.state != RunState::kCompleted && req.checkpoint_on_exit) {
      session.checkpoint_now();  // park at the exact stop step
    }
    res.fallbacks = session.fallbacks();
    store = session.store_stats();
    res.state_crc = model::state_digest(session.state(),
                                        session.step_count());
    if (res.state == RunState::kCompleted) {
      res.diagnostics = session.diagnose();
    }
    if (req.config.trace) res.report.add_summary(session.summary());
    // Sampled last: the drain waits out the final checkpoint write, which
    // overlaps the digest and diagnostics above; a failed write faults.
    ckpt = session.checkpoint_stats();
    sampled = true;
  } catch (const std::exception& e) {
    res.state = RunState::kFaulted;
    res.error = e.what();
  }
  res.wall_s = seconds_since(t0);

  res.report.config()
      .set("ne", req.config.ne)
      .set("nlev", req.config.nlev)
      .set("qsize", req.config.qsize)
      .set("nranks", req.config.nranks)
      .set("backend", backend_name(req.config.backend))
      .set("scenario", req.scenario)
      .set("member", req.member)
      .set("steps", req.steps)
      .set("priority", req.priority);
  res.report.root()
      .set("id", h.id())
      .set("state", to_string(res.state))
      .set("error", res.error)
      .set("steps_done", res.steps_done)
      .set("wall_s", res.wall_s)
      .set("queue_wait_s", res.queue_wait_s)
      .set("worker", res.worker)
      .set("fallbacks", res.fallbacks)
      .set("resumed_from", res.resumed_from)
      .set("state_crc", static_cast<std::uint64_t>(res.state_crc));

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    counters_.member_steps += static_cast<std::uint64_t>(res.steps_done);
    counters_.busy_s += res.wall_s;
    if (sampled) {
      ++counters_.state_samples;
      counters_.state_logical_bytes += store.logical_bytes;
      counters_.state_resident_bytes += store.resident_bytes;
      counters_.state_chunks += store.chunks;
      counters_.state_shared_chunks += store.shared_chunks;
      counters_.checkpoint_saves += ckpt.saves;
      counters_.checkpoint_bytes += ckpt.bytes_written;
    }
    switch (res.state) {
      case RunState::kCompleted: ++counters_.completed; break;
      case RunState::kFaulted: ++counters_.faulted; break;
      case RunState::kCancelled: ++counters_.cancelled; break;
      case RunState::kDeadline: ++counters_.deadline; break;
      default: break;
    }
  }
  const RunState terminal = res.state;
  h.finish(std::move(res));
  notify_terminal(h.id(), terminal);
}

EngineStats Engine::stats() const {
  EngineStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = counters_;
  }
  out.wall_s = seconds_since(epoch_);
  out.queue_depth = queue_.depth();
  out.queue_high_water = queue_.high_water();
  {
    std::lock_guard<std::mutex> lock(bundles_mu_);
    out.mesh_bundles = bundles_.size();
    for (const auto& [key, b] : bundles_) out.mesh_bundle_bytes += b->bytes();
    out.mesh_bytes_unshared = bytes_unshared_;
  }
  return out;
}

void EngineStats::write(obs::Json& out) const {
  const auto u64 = [](std::size_t v) { return static_cast<std::uint64_t>(v); };
  out.set("submitted", submitted)
      .set("completed", completed)
      .set("faulted", faulted)
      .set("cancelled", cancelled)
      .set("deadline", deadline)
      .set("rejected_full", rejected_full)
      .set("cancelled_queued", cancelled_queued)
      .set("resumed", resumed)
      .set("member_steps", member_steps)
      .set("wall_s", wall_s)
      .set("busy_s", busy_s)
      .set("queue_depth", u64(queue_depth))
      .set("queue_high_water", u64(queue_high_water))
      .set("workers", workers)
      .set("mesh_bundles", u64(mesh_bundles))
      .set("mesh_bundle_bytes", u64(mesh_bundle_bytes))
      .set("mesh_bytes_unshared", u64(mesh_bytes_unshared))
      .set("state_samples", state_samples)
      .set("state_logical_bytes", state_logical_bytes)
      .set("state_resident_bytes", state_resident_bytes)
      .set("state_chunks", state_chunks)
      .set("state_shared_chunks", state_shared_chunks)
      .set("checkpoint_saves", checkpoint_saves)
      .set("checkpoint_bytes", checkpoint_bytes)
      .set("member_steps_per_s", member_steps_per_s())
      .set("worker_utilization", utilization())
      .set("resident_bytes_per_member", resident_bytes_per_member())
      .set("cow_shared_fraction", cow_shared_fraction())
      .set("checkpoint_bytes_per_step", checkpoint_bytes_per_step());
}

obs::Report Engine::summary_report() const {
  const EngineStats s = stats();
  obs::Report rep("svc_engine");
  rep.config()
      .set("workers", cfg_.workers)
      .set("queue_capacity", static_cast<std::uint64_t>(cfg_.queue_capacity))
      .set("reject_when_full", cfg_.reject_when_full);
  s.write(rep.root());
  return rep;
}

}  // namespace svc
