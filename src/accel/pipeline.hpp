#pragma once

#include <span>
#include <vector>

#include "accel/kernel.hpp"
#include "sw/core_group.hpp"

/// \file pipeline.hpp
/// The kernel-pipeline execution layer: schedules consecutive kernels of
/// one dynamics step on the same core group, keeps declared-shared element
/// buffers resident in LDM between kernels, and skips redundant DMA via
/// the per-CPE residency ledger (sw/residency.hpp).
///
/// A pipeline run splits its kernel list into maximal fusible segments.
/// Each fused segment is ONE persistent-LDM CoreGroup launch that walks
/// the iteration space element-major: per element a keep-set scope stages
/// admitted fields at most once, every kernel of the segment runs its
/// element() against that scope through leases, and a trailing writeback
/// flushes the dirty keep hulls. Non-fusible kernels (the register-
/// communication RHS) run between segments through their own launch().
///
/// Bit-identity: the fused schedule performs exactly the per-(element,
/// level) arithmetic of the isolated launches, in the same order within
/// each element; elements are independent, so chained results equal the
/// isolated-launch results bit for bit while moving strictly fewer bytes.

namespace accel {

/// Ledger tag of the pinned GLL derivative matrix (not a FieldId: it is
/// launch-invariant and survives pipeline launches on the same group).
inline constexpr std::uint16_t kDvvTag = 0xFFFF;

/// Stage (or find) the pinned GLL derivative matrix \p ws.dvv in this
/// CPE's LDM: a fused launch stages it before a CPE's first element, and
/// the rhs launch, which runs outside the fused schedule, does the same.
/// Allocated outside any element frame and registered persistent, so it
/// survives element scopes and, with persistent-LDM launches, whole
/// pipeline launches on the same core group. homme's operators read the
/// same matrix from their host-side tables; the staging models the
/// traffic of the real port, which reads it from LDM.
void stage_dvv(sw::Cpe& cpe, const Workset& ws);

/// LDM access to one field's element block, granted by ElemCtx::lease().
/// Residency-transparent: when the field is in the keep set the span
/// aliases the resident buffer (only hull extensions move); otherwise the
/// lease stages a private copy and writes it back on destruction, to the
/// binding's write address.
class FieldLease {
 public:
  FieldLease(FieldLease&& o) noexcept
      : cpe_(o.cpe_), span_(o.span_), mem_(o.mem_), access_(o.access_),
        mark_(o.mark_) {
    o.cpe_ = nullptr;
  }
  FieldLease(const FieldLease&) = delete;
  FieldLease& operator=(const FieldLease&) = delete;
  FieldLease& operator=(FieldLease&&) = delete;
  ~FieldLease();

  std::span<double> span() const { return span_; }
  double* data() const { return span_.data(); }
  double& operator[](std::size_t i) const { return span_[i]; }
  std::size_t size() const { return span_.size(); }

 private:
  friend class ElemCtx;
  FieldLease() = default;

  sw::Cpe* cpe_ = nullptr;  ///< set only when teardown is needed (transient)
  std::span<double> span_;
  double* mem_ = nullptr;   ///< transient writeback target
  Access access_ = Access::kRead;
  std::size_t mark_ = 0;    ///< LDM mark to restore (transient)
};

/// Per-element execution context handed to Kernel::element().
class ElemCtx {
 public:
  ElemCtx(sw::Cpe& cpe, const Workset& ws, int item)
      : cpe_(cpe), ws_(ws), item_(item) {}

  int item() const { return item_; }
  int nlev() const { return ws_.nlev; }
  const Workset& workset() const { return ws_; }

  /// Lease [offset, offset+count) doubles of field (\p id, \p sub) of this
  /// element. The residency ledger decides what actually moves.
  FieldLease lease(FieldId id, int sub, std::size_t offset_doubles,
                   std::size_t count_doubles, Access access);

 private:
  sw::Cpe& cpe_;
  const Workset& ws_;
  int item_;
};

/// A scheduled chain of kernels sharing one workset and one core group.
class KernelPipeline {
 public:
  /// Builds the merged workset from the kernels' bind() declarations and
  /// validates every kernel against it (propagating e.g. the RHS level
  /// constraint as std::invalid_argument at construction).
  explicit KernelPipeline(std::vector<const Kernel*> kernels);

  /// Execute the chain on \p cg. Returns whole-chain stats with a
  /// per-kernel PhaseStats breakdown (plus the "writeback" phase of each
  /// fused segment's residency flush).
  sw::KernelStats run(sw::CoreGroup& cg) const;

  const Workset& workset() const { return ws_; }

 private:
  sw::KernelStats run_fused(sw::CoreGroup& cg,
                            const std::vector<const Kernel*>& segment) const;

  std::vector<const Kernel*> kernels_;
  Workset ws_;
};

}  // namespace accel
