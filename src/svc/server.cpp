#include "svc/server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

/// \file server.cpp
/// Construction, admission-side submit, and observability. The
/// supervision state machine (retries, drain, restart) lives in
/// lifecycle.cpp.
///
/// Locking: submit_mu_ serializes every path that calls into
/// engine_->submit or replaces engine_ (submit, resubmit, drain,
/// restart) so a drain never closes the queue under a blocked
/// submitter. mu_ guards all member/admission/stats state and is taken
/// after submit_mu_, never before. The engine's terminal hook takes
/// only mu_, and the engine calls it outside its own locks.

namespace svc {

namespace {

/// splitmix64-style finalizer: the jitter hash.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

double RetryPolicy::delay_s(const std::string& member, int attempt) const {
  if (backoff_base_s <= 0.0 || attempt < 1) return 0.0;
  double d = backoff_base_s;
  for (int i = 1; i < attempt && d < backoff_max_s; ++i) d *= 2.0;
  d = std::min(d, backoff_max_s);
  std::uint64_t h = jitter_seed;
  for (char c : member) h = mix64(h ^ static_cast<unsigned char>(c));
  h = mix64(h ^ static_cast<std::uint64_t>(attempt));
  // u in [-1, 1) from the top 53 bits.
  const double u =
      static_cast<double>(h >> 11) / static_cast<double>(1ull << 52) - 1.0;
  return d * (1.0 + jitter_frac * u);
}

std::string_view to_string(ServerState s) {
  switch (s) {
    case ServerState::kAdmitting: return "admitting";
    case ServerState::kDraining: return "draining";
    case ServerState::kStopped: return "stopped";
  }
  return "?";
}

std::string_view to_string(MemberPhase p) {
  switch (p) {
    case MemberPhase::kActive: return "active";
    case MemberPhase::kBackoff: return "backoff";
    case MemberPhase::kParked: return "parked";
    case MemberPhase::kDone: return "done";
  }
  return "?";
}

// -- Server ------------------------------------------------------------------

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)) {
  engine_ = std::make_unique<Engine>(cfg_.engine);
  attach_engine();
  lifecycle_ = std::thread([this] { lifecycle_loop(); });
}

Server::~Server() {
  drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    cv_.notify_all();
  }
  lifecycle_.join();
}

void Server::attach_engine() {
  engine_->set_member_hook([this](std::uint64_t, RunState) {
    std::lock_guard<std::mutex> lock(mu_);
    terminal_dirty_ = true;
    cv_.notify_all();
  });
}

void Server::add_tenant(const std::string& tenant, TenantQuota quota) {
  std::lock_guard<std::mutex> lock(mu_);
  admission_.set_quota(tenant, quota);
}

void Server::apply_server_fields(const std::string& member,
                                 RunRequest& req) const {
  // Every server member parks at its stop step on an early exit, so a
  // drain can always resume it later.
  req.checkpoint_on_exit = true;
  if (req.config.checkpoint_base.empty() && !cfg_.checkpoint_dir.empty()) {
    req.config.checkpoint_base = cfg_.checkpoint_dir + "/" + member + ".ck";
  }
  if (req.config.checkpoint_base.empty()) return;  // nowhere to checkpoint
  if (req.config.checkpoint_freq <= 0) {
    req.config.checkpoint_freq = cfg_.checkpoint_freq;
    req.config.ckpt_full_interval = cfg_.ckpt_full_interval;
  }
}

Server::SubmitOutcome Server::submit(const std::string& tenant,
                                     const std::string& member,
                                     RunRequest req) {
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  SubmitOutcome out;
  AdmissionVerdict verdict;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const bool known = admission_.has_tenant(tenant);
    if (state_ != ServerState::kAdmitting) {
      out.reason = "server is " + std::string(to_string(state_)) +
                   "; not admitting";
      if (known) admission_.count(tenant, Admission::kRejected);
      return out;
    }
    if (members_.count(member) != 0) {
      out.reason = "member \"" + member + "\" already exists";
      if (known) admission_.count(tenant, Admission::kRejected);
      return out;
    }
    verdict = admission_.decide(tenant);
    if (verdict.decision == Admission::kRejected) {
      out.reason = verdict.reason;
      if (known) admission_.count(tenant, Admission::kRejected);
      return out;
    }
  }

  apply_server_fields(member, req);
  req.priority = verdict.priority;
  RunTicket ticket;
  try {
    ticket = engine_->submit(req);
  } catch (const QueueFull& e) {
    std::lock_guard<std::mutex> lock(mu_);
    admission_.count(tenant, Admission::kRejected);
    out.reason = e.what();
    return out;
  }

  std::lock_guard<std::mutex> lock(mu_);
  Member m;
  m.name = member;
  m.tenant = tenant;
  m.request = std::move(req);
  m.admission = verdict.decision;
  m.priority = verdict.priority;
  m.attempts = 1;
  activate(members_.emplace(member, std::move(m)).first->second, ticket);
  admission_.on_admitted(tenant);
  admission_.count(tenant, verdict.decision);
  out.admission = verdict.decision;
  out.priority = verdict.priority;
  out.reason = verdict.reason;
  out.ticket = std::move(ticket);
  return out;
}

// -- observability -----------------------------------------------------------

ServerState Server::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

MemberStatus Server::status_of(const Member& m) const {
  MemberStatus s;
  s.name = m.name;
  s.tenant = m.tenant;
  s.phase = m.phase;
  s.admission = m.admission;
  s.attempts = m.attempts;
  s.restarts = m.restarts;
  s.last_state = m.last_state;
  s.state_crc = m.state_crc;
  s.resumed_from = m.resumed_from;
  s.error = m.error;
  s.retry_delays_s = m.retry_delays_s;
  return s;
}

MemberStatus Server::member(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = members_.find(name);
  if (it == members_.end()) {
    throw std::out_of_range("svc::Server: no member \"" + name + "\"");
  }
  return status_of(it->second);
}

std::vector<MemberStatus> Server::members() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MemberStatus> out;
  out.reserve(members_.size());
  for (const auto& [name, m] : members_) out.push_back(status_of(m));
  return out;
}

EngineStats Server::engine_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  EngineStats out = retired_;
  if (engine_ != nullptr) out += engine_->stats();
  return out;
}

std::uint64_t Server::retries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retries_;
}

std::uint64_t Server::restarts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return restarts_;
}

obs::Report Server::metrics() const {
  const EngineStats es = engine_stats();
  std::lock_guard<std::mutex> lock(mu_);
  obs::Report rep("svc_server");
  rep.root()
      .set("state", to_string(state_))
      .set("retries", retries_)
      .set("restarts", restarts_);

  int active = 0, backoff = 0, parked = 0, done = 0;
  for (const auto& [name, m] : members_) {
    switch (m.phase) {
      case MemberPhase::kActive: ++active; break;
      case MemberPhase::kBackoff: ++backoff; break;
      case MemberPhase::kParked: ++parked; break;
      case MemberPhase::kDone: ++done; break;
    }
  }
  rep.root()
      .obj("members")
      .set("total", static_cast<std::uint64_t>(members_.size()))
      .set("active", active)
      .set("backoff", backoff)
      .set("parked", parked)
      .set("done", done);

  obs::Json& tenants = rep.root().obj("tenants");
  for (const auto& [name, quota] : admission_.quotas()) {
    const auto c = admission_.counters(name);
    tenants.obj(name)
        .set("tier", quota.tier)
        .set("active", admission_.active(name))
        .set("admitted", c.admitted)
        .set("throttled", c.throttled)
        .set("rejected", c.rejected);
  }

  es.write(rep.root().obj("engine"));
  return rep;
}

std::string Server::metrics_flat() const { return metrics().flat("swcam"); }

}  // namespace svc
