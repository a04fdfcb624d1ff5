#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file fault.hpp
/// Deterministic fault injection for the resilience layer.
///
/// At the paper's scale (10.6M cores held for days) component faults are
/// routine: DMA engines drop or corrupt transfers, CPEs die mid-kernel,
/// and the interconnect loses or mangles messages. A FaultPlan is a
/// seeded, reproducible schedule of such faults: each armed FaultSpec
/// fires on the Nth matching operation of a chosen CPE (or rank) and
/// fires at most once. The simulator surfaces every injected fault as a
/// typed exception — sw::KernelFault on the CPE side, net::CommFault /
/// net::CommTimeout on the mini-MPI side — carrying the target, the
/// operation index and the byte count, never as UB or a hang.
///
/// One plan serves both layers: CoreGroup consults it (via
/// CoreGroup::set_fault_plan) on every DMA descriptor and
/// register-communication send, and net::Cluster consults it (via
/// Cluster::set_fault_plan) on every message send. The CPE-side
/// hooks run on the single-threaded cooperative scheduler; the message
/// hooks run on real rank threads, so all counter state is mutex guarded.

namespace sw {

enum class FaultKind : std::uint8_t {
  kDmaFail = 0,   ///< the Nth DMA descriptor of a CPE errors out
  kDmaCorrupt,    ///< the Nth DMA descriptor completes with flipped bits
  kRegDrop,       ///< the Nth register-comm message of a CPE vanishes
  kCpeDeath,      ///< the CPE dies at its Nth fault point (DMA or reg op)
  kMsgDrop,       ///< the Nth mini-MPI send of a rank is lost
  kMsgDuplicate,  ///< the Nth mini-MPI send of a rank is delivered twice
  kMsgTruncate,   ///< the Nth mini-MPI send of a rank loses its tail
};

std::string_view to_string(FaultKind k);

/// One armed fault: fire on the \p op_index-th matching operation of
/// \p target (a CPE id for kernel faults, a source rank for message
/// faults; -1 matches any target, counting per actual target).
struct FaultSpec {
  FaultKind kind = FaultKind::kDmaFail;
  int target = -1;
  int op_index = 0;
};

/// Typed surface of an injected (or fault-induced) kernel-side failure.
class KernelFault : public std::runtime_error {
 public:
  KernelFault(FaultKind kind, int cpe, int op_index, std::size_t bytes);

  FaultKind kind() const { return kind_; }
  int cpe() const { return cpe_; }
  int op_index() const { return op_index_; }
  std::size_t bytes() const { return bytes_; }

 private:
  FaultKind kind_;
  int cpe_;
  int op_index_;
  std::size_t bytes_;
};

/// A seeded, deterministic schedule of injected faults. Thread safe.
class FaultPlan {
 public:
  /// What actually fired, in firing order (telemetry for tests/benches).
  struct Fired {
    FaultKind kind;
    int target;
    int op_index;
    std::size_t bytes;
  };

  FaultPlan() = default;
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  /// Arm one fault. Chainable.
  FaultPlan& inject(FaultSpec spec);

  std::uint64_t seed() const { return seed_; }

  // -- hooks (advance the per-target op counters) ------------------------

  /// Called per DMA descriptor issued by \p cpe. A returned spec is
  /// kDmaFail, kDmaCorrupt or kCpeDeath with target/op_index resolved.
  std::optional<FaultSpec> on_dma_op(int cpe);
  /// Called per register-communication send of \p cpe. A returned spec is
  /// kRegDrop or kCpeDeath.
  std::optional<FaultSpec> on_reg_send(int cpe);
  /// Called per mini-MPI send of \p src_rank. A returned spec is one of
  /// the kMsg* kinds.
  std::optional<FaultSpec> on_message(int src_rank);

  /// Seed-deterministic corruption for the next corrupt event: which
  /// 8-byte word of \p nwords to flip, and the nonzero xor mask.
  std::pair<std::size_t, std::uint64_t> next_corruption(std::size_t nwords);

  /// Record that an injected fault was applied, with its byte count.
  void note_fired(const FaultSpec& spec, std::size_t bytes);
  std::vector<Fired> fired() const;
  std::size_t fired_count() const;

  /// Rewind all op counters and re-arm every spec (reuse across runs).
  void reset();

 private:
  struct Armed {
    FaultSpec spec;
    bool consumed = false;
  };

  std::optional<FaultSpec> match_locked(std::initializer_list<FaultKind> kinds,
                                        int target, int idx);

  mutable std::mutex mu_;
  std::uint64_t seed_ = 0x53574643u;  // "SWFC"
  std::uint64_t corruption_events_ = 0;
  std::vector<Armed> specs_;
  std::map<int, int> dma_count_;    ///< per-CPE DMA descriptors issued
  std::map<int, int> reg_count_;    ///< per-CPE reg-comm sends
  std::map<int, int> point_count_;  ///< per-CPE fault points (DMA + reg)
  std::map<int, int> msg_count_;    ///< per-rank mini-MPI sends
  std::vector<Fired> fired_;
};

}  // namespace sw
