#pragma once

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
/// * Athread variant: a CPE owns whole columns; the source/target grids
///   are built once and reused across all fields and tracers.

namespace accel {

/// Host reference: homme::vertical_remap_local on the unpacked workset.
void remap_ref(PackedElems& p);

sw::KernelStats remap_openacc(sw::CoreGroup& cg, PackedElems& p);

/// vertical_remap behind the declared-binding interface: consumes the
/// prognostic fields a preceding euler/hypervis left resident (dp, u1,
/// u2, T) and streams tracers; rebuilds dp as the reference grid.
class RemapKernel final : public Kernel {
 public:
  explicit RemapKernel(PackedElems& p) : p_(p) {}

  std::string_view name() const override { return "vertical_remap"; }
  void bind(Workset& ws) const override;
  std::size_t transient_bytes(const Workset& ws,
                              const KeepSet& keep) const override;
  void element(sw::Cpe& cpe, ElemCtx& ctx) const override;

 private:
  PackedElems& p_;
};

sw::KernelStats remap_athread(sw::CoreGroup& cg, PackedElems& p);

}  // namespace accel
