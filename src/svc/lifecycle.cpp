#include "svc/server.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

/// \file lifecycle.cpp
/// The svc::Server supervision state machine: the lifecycle thread that
/// turns terminal engine results into retries or retirements, the
/// graceful drain (cancel + checkpoint + park), and the restart that
/// re-admits parked members from their checkpoint chains. See
/// server.cpp for the locking rules.

namespace svc {

namespace {

std::chrono::steady_clock::time_point after_seconds(double s) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(s > 0.0 ? s : 0.0));
}

}  // namespace

void Server::lifecycle_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    // Sleep until an engine member terminalizes (the hook sets
    // terminal_dirty_) or the earliest backoff deadline passes.
    auto deadline = std::chrono::steady_clock::time_point::max();
    bool have_deadline = false;
    for (const auto& [name, m] : members_) {
      if (m.phase == MemberPhase::kBackoff && m.retry_at < deadline) {
        deadline = m.retry_at;
        have_deadline = true;
      }
    }
    if (have_deadline) {
      cv_.wait_until(lock, deadline,
                     [&] { return stop_ || terminal_dirty_; });
    } else {
      cv_.wait(lock, [&] { return stop_ || terminal_dirty_; });
    }
    if (stop_) return;
    terminal_dirty_ = false;

    // Terminal attempts: schedule a retry or retire the member.
    for (auto& [name, m] : members_) {
      if (m.phase == MemberPhase::kActive && m.ticket != nullptr &&
          m.ticket->done()) {
        handle_terminal(m);
      }
    }

    // Backoffs whose delay has elapsed: re-submit outside mu_ (the
    // engine queue may block under backpressure).
    std::vector<std::string> due;
    const auto now = std::chrono::steady_clock::now();
    for (const auto& [name, m] : members_) {
      if (m.phase == MemberPhase::kBackoff && m.retry_at <= now) {
        due.push_back(name);
      }
    }
    if (!due.empty()) {
      lock.unlock();
      for (const auto& name : due) resubmit(name);
      lock.lock();
    }
  }
}

void Server::handle_terminal(Member& m) {
  const RunResult& res = m.ticket->wait();  // already terminal; no block
  m.last_state = res.state;
  m.state_crc = res.state_crc;
  m.resumed_from = res.resumed_from;
  m.error = res.error;
  switch (res.state) {
    case RunState::kFaulted:
      if (m.attempts < cfg_.retry.max_attempts) {
        // Attempt k failing schedules retry k (1-based) of the policy.
        const double delay = cfg_.retry.delay_s(m.name, m.attempts);
        m.retry_delays_s.push_back(delay);
        m.retry_at = after_seconds(delay * cfg_.retry.sleep_scale);
        m.phase = MemberPhase::kBackoff;
      } else {
        m.phase = MemberPhase::kDone;
        admission_.on_retired(m.tenant);
      }
      break;
    case RunState::kCancelled:
      if (state_ == ServerState::kDraining) {
        // Drained mid-run: the engine checkpointed it at its stop step
        // (checkpoint_on_exit); restart() resumes it from there.
        m.phase = MemberPhase::kParked;
      } else {
        m.phase = MemberPhase::kDone;  // a real cancel is final
        admission_.on_retired(m.tenant);
      }
      break;
    default:  // kCompleted and kDeadline are final outcomes
      m.phase = MemberPhase::kDone;
      admission_.on_retired(m.tenant);
      break;
  }
  cv_.notify_all();
}

void Server::activate(Member& m, RunTicket ticket) {
  m.ticket = std::move(ticket);
  m.phase = MemberPhase::kActive;
  if (m.ticket->done()) {
    terminal_dirty_ = true;
    cv_.notify_all();
  }
}

void Server::resubmit(const std::string& name) {
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  RunRequest req;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = members_.find(name);
    if (it == members_.end()) return;
    Member& m = it->second;
    // A racing drain may have parked it, or a racing cancel finished it.
    if (m.phase != MemberPhase::kBackoff ||
        state_ != ServerState::kAdmitting) {
      return;
    }
    req = m.request;
    req.resume = true;
    req.priority = m.priority;
  }
  RunTicket ticket;
  try {
    ticket = engine_->submit(req);
  } catch (const std::exception&) {
    // Queue full in reject mode (or closed under a racing drain): stay
    // in backoff and try again after the base delay.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = members_.find(name);
    if (it != members_.end() && it->second.phase == MemberPhase::kBackoff) {
      it->second.retry_at = after_seconds(cfg_.retry.backoff_base_s *
                                          cfg_.retry.sleep_scale);
    }
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  Member& m = members_.at(name);
  activate(m, std::move(ticket));
  ++m.attempts;
  m.request.resume = true;
  ++retries_;
}

void Server::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    for (const auto& [name, m] : members_) {
      if (m.phase == MemberPhase::kActive ||
          m.phase == MemberPhase::kBackoff) {
        return false;
      }
    }
    return true;
  });
}

void Server::drain() {
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  std::vector<RunTicket> to_cancel;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == ServerState::kStopped || engine_ == nullptr) return;
    state_ = ServerState::kDraining;
    for (const auto& [name, m] : members_) {
      if (m.phase == MemberPhase::kActive && m.ticket != nullptr) {
        to_cancel.push_back(m.ticket);
      }
    }
  }
  // Cancel outside mu_: queued members terminalize immediately, running
  // ones stop at the next step boundary and checkpoint their stop step.
  for (const auto& t : to_cancel) t->cancel();
  engine_->shutdown(/*drain=*/true);

  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, m] : members_) {
    if (m.phase == MemberPhase::kActive && m.ticket != nullptr &&
        m.ticket->done()) {
      handle_terminal(m);  // a member may have Completed under the race
    }
    if (m.phase == MemberPhase::kBackoff) {
      m.phase = MemberPhase::kParked;  // resumes on restart, not a timer
    }
  }
  retired_ += engine_->stats();
  engine_.reset();
  state_ = ServerState::kStopped;
  cv_.notify_all();
}

void Server::restart() {
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  std::vector<std::string> parked;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ != ServerState::kStopped) {
      throw std::logic_error("svc::Server::restart: state is " +
                             std::string(to_string(state_)) +
                             ", expected stopped");
    }
    engine_ = std::make_unique<Engine>(cfg_.engine);
    attach_engine();
    state_ = ServerState::kAdmitting;
    ++restarts_;
    for (const auto& [name, m] : members_) {
      if (m.phase == MemberPhase::kParked) parked.push_back(name);
    }
  }
  for (const auto& name : parked) {
    RunRequest req;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const Member& m = members_.at(name);
      req = m.request;
      req.resume = true;
      req.priority = m.priority;
    }
    RunTicket ticket = engine_->submit(req);  // blocking is fine here
    std::lock_guard<std::mutex> lock(mu_);
    Member& m = members_.at(name);
    activate(m, std::move(ticket));
    ++m.attempts;
    ++m.restarts;
    m.request.resume = true;
  }
}

}  // namespace svc
