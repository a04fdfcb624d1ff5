#include "net/mini_mpi.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>

namespace net {

// ---------------------------------------------------------------------------
// Rank
// ---------------------------------------------------------------------------

obs::Track* Rank::trace_track() {
  if (!trk_init_) {
    trk_ = cluster_->rank_track(rank_);
    trk_init_ = true;
  }
  return trk_;
}

void Rank::send(int dst, int tag, std::span<const double> data) {
  assert(dst >= 0 && dst < size_);
  obs::Track* trk = trace_track();
  const std::uint64_t bytes = data.size() * sizeof(double);
  if (trk != nullptr) {
    const obs::Counter args[2] = {{"bytes", bytes},
                                  {"dst", static_cast<std::uint64_t>(dst)}};
    trk->instant("net:send", args);
  }
  if (sw::FaultPlan* fp = cluster_->faults_) {
    if (const auto f = fp->on_message(rank_)) {
      fp->note_fired(*f, bytes);
      // An injected fault that the run survives would otherwise be
      // invisible: record it as a counted instant either way.
      const auto note_fault = [&](const char* what) {
        if (trk != nullptr) {
          const obs::Counter args[1] = {{"bytes", bytes}};
          trk->instant(what, args);
        }
      };
      switch (f->kind) {
        case sw::FaultKind::kMsgDrop:
          note_fault("net:fault:drop");
          return;  // lost on the wire
        case sw::FaultKind::kMsgDuplicate:
          note_fault("net:fault:duplicate");
          cluster_->deposit(dst,
                            Cluster::Message{rank_, tag,
                                             std::vector<double>(data.begin(),
                                                                 data.end())});
          break;  // plus the normal copy below
        case sw::FaultKind::kMsgTruncate: {
          note_fault("net:fault:truncate");
          cluster_->deposit(
              dst, Cluster::Message{rank_, tag,
                                    std::vector<double>(
                                        data.begin(),
                                        data.begin() +
                                            static_cast<std::ptrdiff_t>(
                                                data.size() / 2))});
          return;  // the tail never arrives
        }
        default:
          break;  // kernel-side kinds are never returned by on_message
      }
    }
  }
  cluster_->deposit(dst,
                    Cluster::Message{rank_, tag,
                                     std::vector<double>(data.begin(),
                                                         data.end())});
}

void Rank::recv(int src, int tag, std::span<double> out) {
  obs::Track* trk = trace_track();
  if (trk != nullptr) trk->begin("net:recv");
  Cluster::Message msg = [&] {
    try {
      return cluster_->retrieve(rank_, src, tag);
    } catch (...) {
      if (trk != nullptr) {
        trk->instant("net:comm_fault");
        trk->end();
      }
      throw;
    }
  }();
  if (msg.payload.size() != out.size()) {
    if (trk != nullptr) {
      trk->instant("net:fault:length_mismatch");
      trk->end();
    }
    throw CommFault(
        "mini_mpi: rank " + std::to_string(rank_) + " recv from " +
            std::to_string(src) + " tag " + std::to_string(tag) +
            ": payload length mismatch (got " +
            std::to_string(msg.payload.size() * sizeof(double)) +
            " bytes, expected " + std::to_string(out.size() * sizeof(double)) +
            ")",
        rank_, src, tag, out.size() * sizeof(double),
        msg.payload.size() * sizeof(double));
  }
  std::copy(msg.payload.begin(), msg.payload.end(), out.begin());
  if (trk != nullptr) {
    const obs::Counter args[2] = {
        {"bytes",
         static_cast<std::uint64_t>(msg.payload.size() * sizeof(double))},
        {"src", static_cast<std::uint64_t>(src)}};
    trk->end(args);
  }
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

Cluster::Cluster(int nranks) : nranks_(nranks) {
  if (nranks < 1) throw std::invalid_argument("Cluster needs >= 1 rank");
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

Cluster::~Cluster() = default;

void Cluster::set_tracer(obs::Tracer* t) {
  tracer_ = t;
  rank_tracks_.assign(static_cast<std::size_t>(nranks_), nullptr);
}

obs::Track* Cluster::rank_track(int r) {
  if (tracer_ == nullptr) return nullptr;
  obs::Track*& slot = rank_tracks_[static_cast<std::size_t>(r)];
  if (slot == nullptr) {
    slot = &tracer_->track("rank" + std::to_string(r), r, 0);
  }
  return slot;
}

void Cluster::deposit(int dst, Message msg) {
  Mailbox& box = mailbox(dst);
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.messages.push_back(std::move(msg));
  }
  box.cv.notify_all();
}

Cluster::Message Cluster::retrieve(int self, int src, int tag) {
  Mailbox& box = mailbox(self);
  std::unique_lock<std::mutex> lock(box.mu);
  bool timed_out = false;
  bool watchdog_noted = false;
  for (;;) {
    for (auto it = box.messages.begin(); it != box.messages.end(); ++it) {
      if (it->src == src && it->tag == tag) {
        Message msg = std::move(*it);
        box.messages.erase(it);
        return msg;
      }
    }
    if (aborted_.load()) {
      throw CommFault("mini_mpi: rank " + std::to_string(self) +
                          " aborted while waiting for src " +
                          std::to_string(src) + " tag " + std::to_string(tag) +
                          ": a peer rank failed",
                      self, src, tag);
    }
    if (timed_out) {
      throw CommTimeout("mini_mpi: watchdog timeout after " +
                            std::to_string(watchdog_seconds_) + " s: rank " +
                            std::to_string(self) +
                            " blocked in recv(src=" + std::to_string(src) +
                            ", tag=" + std::to_string(tag) + ")",
                        self, src, tag);
    }
    if (watchdog_seconds_ > 0.0) {
      if (!watchdog_noted) {
        // Counted once per blocking receive, even when the message then
        // arrives in time: successful watchdog-bounded waits must show in
        // the summary, not just the ones that throw.
        if (obs::Track* trk = rank_track(self)) {
          trk->instant("net:watchdog_wait");
        }
        watchdog_noted = true;
      }
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration<double>(watchdog_seconds_);
      timed_out = box.cv.wait_until(lock, deadline) ==
                  std::cv_status::timeout;
    } else {
      box.cv.wait(lock);
    }
  }
}

void Cluster::abort_peers() {
  aborted_.store(true);
  for (auto& box : mailboxes_) box->cv.notify_all();
}

void Cluster::run(const std::function<void(Rank&)>& fn) {
  // Fresh state per run.
  aborted_.store(false);
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box->mu);
    box->messages.clear();
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks_));
  std::mutex err_mu;
  std::exception_ptr first_error;

  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([&, r] {
      Rank rank;
      rank.cluster_ = this;
      rank.rank_ = r;
      rank.size_ = nranks_;
      try {
        fn(rank);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
        // Unblock peers waiting on receives so the join terminates: a
        // failed rank must never hang the cluster.
        abort_peers();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace net
