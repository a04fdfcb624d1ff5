#pragma once

#include <array>

#include "accel/kernel.hpp"
#include "accel/packed.hpp"
#include "sw/core_group.hpp"

/// \file remap_acc.hpp
/// Sunway ports of vertical_remap (Table 1 kernel #3).
///
/// The remap is a per-column operation: each GLL column gathers its
/// levels (stride 16 doubles in the [lev][gidx] layout — the strided-DMA
/// pattern the Sunway engine supports natively), rebuilds the reference
/// grid, and conservatively remaps u, T and the tracer mixing ratios.
/// Both variants compute what homme::vertical_remap_local computes, bit
/// for bit: the target thicknesses come from homme::remap_target_dp and
/// each column's remap goes through a homme::BasicColumnRemapPlan (one
/// column per plan in the OpenACC variant, four per plan in the Athread
/// variant's host-side arithmetic).
///
/// * OpenACC variant: collapse over (element, GLL point) with the source
///   thickness re-gathered and the target rebuilt for every field
///   remapped (per-loop copyin).
/// * Athread variant: a CPE owns whole elements. Each field's [lev][16]
///   block arrives in LDM as one DMA, section 7.5's register transpose
///   turns it into 16 contiguous columns and back, and the source/target
///   grids are built once per element and reused across all fields and
///   tracers. The transposes are charged (sw::transpose_cycles), not
///   executed: the host remaps four columns per plan in the lanes of a
///   vpack, in place on the block the DMA delivered, whose layout the
///   transposes would only restore. The kernel binds a PackedElems, or
///   per-element block tables that read one set of blocks and write
///   another (PipelineAccelerator: the state's chunks and their spares).

namespace accel {

/// Host reference: homme::vertical_remap_local on the unpacked workset.
void remap_ref(PackedElems& p);

sw::KernelStats remap_openacc(sw::CoreGroup& cg, PackedElems& p);

/// The remap's prognostics in binding order: dp, u1, u2, T, then qdp (an
/// element's tracers in one block).
inline constexpr std::array<FieldId, 5> kRemapFields{
    FieldId::kDp, FieldId::kU1, FieldId::kU2, FieldId::kT, FieldId::kQdp};

/// Per-element block tables of the remap's prognostics, in kRemapFields
/// order: field f of element e is read from from[f][e] and written to
/// to[f][e].
struct RemapBlocks {
  std::array<const double* const*, kRemapFields.size()> from{};
  std::array<double* const*, kRemapFields.size()> to{};
};

/// vertical_remap behind the declared-binding interface: consumes the
/// prognostic fields a preceding euler/hypervis left resident (dp, u1,
/// u2, T) and streams tracers; rebuilds dp as the reference grid.
class RemapKernel final : public Kernel {
 public:
  /// Remap the elements of \p p in place.
  explicit RemapKernel(PackedElems& p);
  /// Remap \p nelem elements of shape \p d that are read from one set of
  /// blocks and written to another (PipelineAccelerator: the state's
  /// chunks and their spares).
  RemapKernel(const homme::Dims& d, int nelem, const RemapBlocks& blocks);

  std::string_view name() const override { return "vertical_remap"; }
  void bind(Workset& ws) const override;
  std::size_t transient_bytes(const Workset& ws,
                              const KeepSet& keep) const override;
  void element(sw::Cpe& cpe, ElemCtx& ctx) const override;

 private:
  int nelem_, nlev_, qsize_;
  std::array<FieldBinding, kRemapFields.size()> fields_;
};

sw::KernelStats remap_athread(sw::CoreGroup& cg, PackedElems& p);

}  // namespace accel
