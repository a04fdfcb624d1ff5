#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "obs/trace.hpp"
#include "sw/fault.hpp"

/// \file mini_mpi.hpp
/// An in-process message-passing runtime with MPI-shaped semantics.
///
/// TaihuLight programs follow "MPI + X": one MPI process per core group,
/// Athread/OpenACC inside. We reproduce the MPI layer with a small
/// threaded runtime so that the multi-rank algorithms of the paper —
/// above all the redesigned bndry_exchangev with computation/communication
/// overlap (section 7.6) — run *functionally* at small rank counts and can
/// be tested for equivalence against their sequential references.
/// Machine-scale communication cost comes from the analytic model in
/// network_model.hpp instead.
///
/// It carries what the exchange calls: a buffered send and a blocking
/// receive, matched by source and tag.
///
/// Resilience: the cluster accepts a sw::FaultPlan that injects message
/// drop / duplication / truncation on the Nth send of a chosen rank, and
/// a watchdog (default off) that bounds every blocking receive. Any fault
/// surfaces as a typed net::CommFault — a length mismatch or truncation
/// at the receiver, a net::CommTimeout naming the blocked rank/src/tag
/// for a lost message — never as a hang: when one rank fails, the
/// cluster aborts every peer still blocked in it.

namespace net {

class Cluster;

/// Typed surface of a communication failure: which rank, which peer,
/// which tag, and the byte counts involved.
class CommFault : public std::runtime_error {
 public:
  CommFault(const std::string& what, int rank, int peer, int tag,
            std::size_t bytes_expected = 0, std::size_t bytes_got = 0)
      : std::runtime_error(what), rank_(rank), peer_(peer), tag_(tag),
        bytes_expected_(bytes_expected), bytes_got_(bytes_got) {}

  int rank() const { return rank_; }
  int peer() const { return peer_; }
  int tag() const { return tag_; }
  std::size_t bytes_expected() const { return bytes_expected_; }
  std::size_t bytes_got() const { return bytes_got_; }

 private:
  int rank_;
  int peer_;
  int tag_;
  std::size_t bytes_expected_;
  std::size_t bytes_got_;
};

/// The cluster watchdog fired: a receive blocked past the configured
/// bound. The mini-MPI analogue of sw::SchedulerDeadlock.
class CommTimeout : public CommFault {
 public:
  CommTimeout(const std::string& what, int rank, int src, int tag)
      : CommFault(what, rank, src, tag) {}
};

/// The per-process communication handle passed to every rank function.
class Rank {
 public:
  int rank() const { return rank_; }
  int size() const { return size_; }

  /// Buffered standard send: copies \p data and returns immediately, so
  /// a send is complete when it returns (an MPI_Isend of the exchange
  /// needs no wait here).
  void send(int dst, int tag, std::span<const double> data);
  /// Blocking receive into \p out. Throws CommFault when the matching
  /// message's payload length differs from the \p out span (never copies
  /// out of bounds or truncates silently).
  void recv(int src, int tag, std::span<double> out);

  /// This rank's trace track ("rank<r>"), or nullptr when the cluster has
  /// no tracer. The dycore layers share it so net events nest inside
  /// their step spans.
  obs::Track* trace_track();

 private:
  friend class Cluster;

  Cluster* cluster_ = nullptr;
  int rank_ = 0;
  int size_ = 0;
  obs::Track* trk_ = nullptr;
  bool trk_init_ = false;
};

/// A set of ranks executed on real threads. Construct, then run() a rank
/// function; exceptions thrown by any rank are rethrown from run().
class Cluster {
 public:
  explicit Cluster(int nranks);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int size() const { return nranks_; }

  /// Inject message faults per \p plan (nullptr detaches). The plan's
  /// kMsg* specs fire on the Nth send of the matching source rank.
  void set_fault_plan(sw::FaultPlan* plan) { faults_ = plan; }
  sw::FaultPlan* fault_plan() const { return faults_; }

  /// Bound every blocking receive by \p seconds
  /// (<= 0 disables, the default): a rank blocked longer throws
  /// CommTimeout naming itself, the awaited source and the tag.
  void set_watchdog(double seconds) { watchdog_seconds_ = seconds; }
  double watchdog() const { return watchdog_seconds_; }

  /// Execute \p fn as every rank, in parallel, and join.
  void run(const std::function<void(Rank&)>& fn);

  /// Attach a tracer: every rank reports sends/receives,
  /// watchdog-bounded waits and injected message faults on its own
  /// "rank<r>" track (pid = r). nullptr detaches. Call while no rank
  /// function is running.
  void set_tracer(obs::Tracer* t);
  obs::Tracer* tracer() const { return tracer_; }
  /// Rank \p r's track, created lazily (nullptr when no tracer attached).
  /// Only rank r's thread may use the returned track for recording.
  obs::Track* rank_track(int r);

 private:
  friend class Rank;

  struct Message {
    int src;
    int tag;
    std::vector<double> payload;
  };

  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> messages;
  };

  Mailbox& mailbox(int rank) { return *mailboxes_[static_cast<std::size_t>(rank)]; }

  void deposit(int dst, Message msg);
  Message retrieve(int self, int src, int tag);
  /// Mark the cluster failed and wake every blocked rank so no peer of a
  /// dead rank waits forever.
  void abort_peers();

  sw::FaultPlan* faults_ = nullptr;
  double watchdog_seconds_ = 0.0;
  std::atomic<bool> aborted_{false};

  obs::Tracer* tracer_ = nullptr;
  std::vector<obs::Track*> rank_tracks_;

  int nranks_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
};

}  // namespace net
