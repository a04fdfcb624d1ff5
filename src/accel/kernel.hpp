#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "homme/state.hpp"
#include "mesh/geometry.hpp"
#include "sw/core_group.hpp"

/// \file kernel.hpp
/// The declared-binding kernel interface of the kernel-pipeline layer.
///
/// Instead of open-coding its DMA gets, an accel kernel *declares* the
/// main-memory fields it touches (one FieldBinding each, marked writable
/// and keep-worthy as it uses them) and expresses its data movement as
/// leases against that declaration. The KernelPipeline (pipeline.hpp)
/// turns the bindings of a whole kernel chain into a keep-set admission
/// plan: fields several kernels share stay resident in LDM between
/// kernels, and the per-CPE residency ledger skips the redundant
/// transfers — the scheduling abstraction the O2ATH toolkit derives from
/// the same idea, applied to this simulator. A kernel binds the model's
/// own homme::State, through the per-element block tables of a
/// StateBlocks, so its leases DMA the state's chunks with no staging copy.

namespace accel {

class ElemCtx;  // defined in pipeline.hpp

inline constexpr int kNp = mesh::kNp;
inline constexpr int kNpp = mesh::kNpp;

/// Charge \p n retired flops to \p cpe on the chosen issue width. The
/// ports compute with homme's bodies and operators and charge at the call
/// site: the simulator separates functional results from timing.
inline void charge(sw::Cpe& cpe, bool vectorized, std::uint64_t n) {
  if (vectorized) {
    cpe.vector_flops(n);
  } else {
    cpe.scalar_flops(n);
  }
}

/// Flops one call of a homme tile operator charges: the 4-term reference
/// derivative sums of all 16 points, plus the metric products and final
/// divide of the divergence and vorticity.
inline constexpr std::uint64_t kDerivFlops = kNpp * 4 * kNp;
inline constexpr std::uint64_t kDivergenceFlops = kNpp * (2 + 4 * kNp + 2);
inline constexpr std::uint64_t kVorticityFlops = kNpp * (6 + 4 * kNp + 2);

/// The time step the rhs and euler ports advance by, s.
inline constexpr double kPortDt = 100.0;
/// nu * dt of the hypervis ports, m^4 (m^2 for hypervis_dp1).
inline constexpr double kPortNuDt = 1.0e10;

/// Identity of one main-memory field a kernel can lease.
enum class FieldId : std::uint16_t {
  kGeom = 0,  ///< packed geometry tiles of the element
  kDp,        ///< layer thickness
  kU1,        ///< contravariant wind 1
  kU2,        ///< contravariant wind 2
  kT,         ///< temperature
  kQdp,       ///< tracer mass (sub-indexed by tracer)
  kExtra,     ///< euler's stand-in shared arrays (sub-indexed)
  kPhis,      ///< surface geopotential
  kColT,      ///< physics column temperature
  kColQ,      ///< physics column humidity
  kColU,      ///< physics column zonal wind
  kColV,      ///< physics column meridional wind
  kColDp,     ///< physics column thickness
  kColP,      ///< physics column mid-level pressure
};

enum class Access {
  kRead,       ///< staged in, never written back
  kReadWrite,  ///< staged in, written back
  kWrite,      ///< fully overwritten: no stage-in, written back
};

/// How a FieldId maps onto main memory. A field of the model's state is
/// bound through per-item block tables (StateBlocks below): an item's
/// block is read from from[item] and written to to[item], the state's own
/// chunks. The three images the ports read beside the state (the packed
/// geometry, euler's shared_extra stand-ins and the physics columns) bind
/// no tables: their item blocks sit at base + item * item_stride. Within
/// a block, (sub, offset) lies sub * sub_stride + offset doubles in.
struct FieldBinding {
  FieldId id{};
  double* base = nullptr;
  std::size_t item_stride = 0;  ///< doubles between items
  std::size_t extent = 0;       ///< doubles per (item, sub) block
  int subcount = 1;             ///< sub-fields per item (tracers, ...)
  std::size_t sub_stride = 0;   ///< doubles between sub-fields
  bool writable = false;
  /// Candidate for cross-kernel LDM residency: the pipeline may keep this
  /// field's element block resident between kernels of a fused segment.
  /// Per kernel: two kernels may bind one field with different values.
  bool keep = false;
  /// Per-item block tables, both or neither: reads from from[item],
  /// writes to to[item].
  const double* const* from = nullptr;
  double* const* to = nullptr;
};

/// The fields of a homme::State a port binds, in block-table order: the
/// prognostics, which a port may write, then phis, which it only reads.
inline constexpr std::array<FieldId, 6> kStateFields{
    FieldId::kDp, FieldId::kU1, FieldId::kU2,
    FieldId::kT,  FieldId::kQdp, FieldId::kPhis};
/// The prognostics' chunks, in kStateFields order (qdp holds an element's
/// tracers in one block).
inline constexpr std::array<homme::Chunk homme::ElementState::*, 5>
    kPrognosticChunks{&homme::ElementState::dp, &homme::ElementState::u1,
                      &homme::ElementState::u2, &homme::ElementState::T,
                      &homme::ElementState::qdp};

/// Per-element block tables of a homme::State: where every port reads and
/// writes the model's own chunks. The kernels of one chain bind one
/// StateBlocks (Workset::bind compares the table pointers), so the caller
/// fills it and hands it to each of them.
class StateBlocks {
 public:
  StateBlocks() = default;
  /// The tables of a port that updates \p s in place: refill(d, s, s).
  StateBlocks(const homme::Dims& d, homme::State& s) { refill(d, s, s); }

  /// List the chunks of \p in's elements to read and those of \p out's to
  /// write, in the tables' capacity. \p out is \p in (in place) or a
  /// second state, sized to \p in first (the accelerator's spares). Each
  /// written chunk is un-shared (mutable_span()) before it is listed, and
  /// in place read through the pointer that returned: no port writes a
  /// chunk a copy still holds, and a chain's later kernels read what its
  /// earlier ones wrote. phis is read only; its write blocks are null.
  void refill(const homme::Dims& d, homme::State& in, homme::State& out);

  const homme::Dims& dims() const { return dims_; }
  int nelem() const { return nelem_; }
  /// Where element \p e's block of field \p id is read, and written.
  const double* from(FieldId id, int e) const { return reads_[at(id, e)]; }
  double* to(FieldId id, int e) const { return writes_[at(id, e)]; }
  /// Field \p id of elements [begin, nelem()) bound through the tables.
  FieldBinding binding(FieldId id, bool writable, bool keep,
                       int begin = 0) const;

 private:
  std::size_t at(FieldId id, int e) const;

  homme::Dims dims_;
  int nelem_ = 0;
  /// [field][element] in kStateFields order.
  std::vector<const double*> reads_;
  std::vector<double*> writes_;
};

/// The merged binding table of a kernel chain plus the common iteration
/// space (items = elements or columns).
class Workset {
 public:
  int nitems = 0;
  int nlev = 0;                    ///< vertical extent (chunk planning)
  const double* dvv = nullptr;     ///< GLL derivative matrix (16 doubles),
                                   ///< staged and pinned by the pipeline
                                   ///< for its modeled traffic

  /// Register a binding; kernels sharing a FieldId must agree on where it
  /// lives (keep is each kernel's own).
  void bind(const FieldBinding& b) {
    if ((b.from == nullptr) != (b.to == nullptr)) {
      throw std::logic_error("Workset: a binding gives one block table");
    }
    if (const FieldBinding* have = find(b.id)) {
      if (have->base != b.base || have->extent != b.extent ||
          have->item_stride != b.item_stride ||
          have->subcount != b.subcount || have->sub_stride != b.sub_stride ||
          have->from != b.from || have->to != b.to) {
        throw std::logic_error(
            "Workset: kernels disagree on a field binding");
      }
      if (b.writable && !have->writable) {
        const_cast<FieldBinding*>(have)->writable = true;
      }
      return;
    }
    bindings_.push_back(b);
  }

  const FieldBinding* find(FieldId id) const {
    for (const auto& b : bindings_) {
      if (b.id == id) return &b;
    }
    return nullptr;
  }

  const FieldBinding& at(FieldId id) const {
    const FieldBinding* b = find(id);
    if (b == nullptr) {
      throw std::logic_error("Workset: field not bound");
    }
    return *b;
  }

  /// Where block (\p item, \p sub) of field \p id is read from.
  const double* read_addr(FieldId id, int item, int sub) const {
    const FieldBinding& b = at(id);
    const std::size_t i = static_cast<std::size_t>(item);
    return (b.from != nullptr ? b.from[i] : b.base + i * b.item_stride) +
           sub_offset(b, sub);
  }

  /// Where block (\p item, \p sub) of field \p id is written to.
  double* write_addr(FieldId id, int item, int sub) const {
    const FieldBinding& b = at(id);
    const std::size_t i = static_cast<std::size_t>(item);
    return (b.to != nullptr ? b.to[i] : b.base + i * b.item_stride) +
           sub_offset(b, sub);
  }

  /// Set (or check) the common iteration space.
  void items(int n, int levels) {
    if (nitems == 0) {
      nitems = n;
      nlev = levels;
      return;
    }
    if (nitems != n || nlev != levels) {
      throw std::logic_error("Workset: kernels disagree on iteration space");
    }
  }

  const std::vector<FieldBinding>& bindings() const { return bindings_; }

 private:
  static std::size_t sub_offset(const FieldBinding& b, int sub) {
    assert(sub >= 0 && sub < b.subcount);
    return static_cast<std::size_t>(sub) * b.sub_stride;
  }

  std::vector<FieldBinding> bindings_;
};

/// The set of fields admitted for cross-kernel residency.
struct KeepSet {
  std::vector<FieldId> ids;
  bool has(FieldId id) const {
    for (FieldId x : ids) {
      if (x == id) return true;
    }
    return false;
  }
};

/// One accel kernel behind the declared-binding interface.
///
/// Fusible kernels express their whole per-element work in element():
/// the pipeline schedules them element-major on one CoreGroup launch and
/// serves their leases from the shared keep set. Non-fusible kernels
/// (e.g. the register-communication scan of compute_and_apply_rhs, whose
/// level decomposition spans CPE rows) keep their own launch() and run as
/// a pipeline barrier between fused segments.
class Kernel {
 public:
  virtual ~Kernel() = default;

  virtual std::string_view name() const = 0;
  virtual bool fusible() const { return true; }

  /// Check the workset shape; throw std::invalid_argument when the kernel
  /// cannot run on it.
  virtual void validate(const Workset&) const {}

  /// Register this kernel's fields and iteration space. A fused
  /// segment's keep candidates are its kernels' keep bindings, in
  /// declaration order.
  virtual void bind(Workset& ws) const = 0;

  /// Worst-case transient LDM bytes element() needs *beyond* the keep
  /// buffers, given keep set \p keep (admission uses the max over the
  /// chain). Kernels size their level chunks to the actual free space at
  /// run time, so this is the minimum that must be guaranteed.
  virtual std::size_t transient_bytes(const Workset&, const KeepSet&) const {
    return 0;
  }

  /// Per-element work of a fusible kernel, expressed as leases on ctx.
  virtual void element(sw::Cpe&, ElemCtx&) const {
    throw std::logic_error("Kernel::element not implemented");
  }

  /// Whole-launch fallback of a non-fusible kernel.
  virtual sw::KernelStats launch(sw::CoreGroup&, const Workset&) const {
    throw std::logic_error("Kernel::launch only valid for non-fusible kernels");
  }
};

}  // namespace accel
