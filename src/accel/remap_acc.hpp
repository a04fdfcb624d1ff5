#pragma once

#include <array>

#include "accel/kernel.hpp"
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
///   transposes would only restore.
///
/// Both variants read and write the state's own chunks through a
/// StateBlocks: in place (Table 1, the machine model, the tests), or from
/// the state's chunks into spares (PipelineAccelerator).

namespace accel {

/// OpenACC-style port: remaps \p s in place.
sw::KernelStats remap_openacc(sw::CoreGroup& cg, const homme::Dims& d,
                              homme::State& s);

/// vertical_remap behind the declared-binding interface: consumes the
/// prognostic fields a preceding euler/hypervis left resident (dp, u1,
/// u2, T) and streams tracers; rebuilds dp as the reference grid.
class RemapKernel final : public Kernel {
 public:
  /// Remap elements [begin, end) of the state \p b lists.
  RemapKernel(const StateBlocks& b, int begin, int end);

  std::string_view name() const override { return "vertical_remap"; }
  void bind(Workset& ws) const override;
  std::size_t transient_bytes(const Workset& ws,
                              const KeepSet& keep) const override;
  void element(sw::Cpe& cpe, ElemCtx& ctx) const override;

 private:
  int nelem_, nlev_, qsize_;
  std::array<FieldBinding, kPrognosticChunks.size()> fields_;
};

/// Athread port, a one-kernel pipeline: remaps \p s in place.
sw::KernelStats remap_athread(sw::CoreGroup& cg, const homme::Dims& d,
                              homme::State& s);

}  // namespace accel
