#pragma once

#include "accel/kernel.hpp"
#include "accel/packed.hpp"
#include "sw/core_group.hpp"

/// \file hypervis_acc.hpp
/// Sunway ports of the dissipation kernels of Table 1:
///   hypervis_dp1     — nabla^2 on momentum and temperature
///   hypervis_dp2     — nabla^4 on momentum and temperature
///   biharmonic_dp3d  — weak biharmonic on the layer thickness
///
/// These are the element-local applications of homme::laplace_sphere_wk,
/// the weak Laplacian the model's hyperviscosity applies (the DSS between
/// and after applications belongs to bndry_exchangev). The OpenACC
/// variant re-stages the metric tiles for every (element, level)
/// iteration of the collapsed loop; the Athread variant keeps the metric
/// and an element's level block resident and runs 4-wide. Both update the
/// state's own chunks through a StateBlocks and read the metric tiles
/// from the geometry image.

namespace accel {

enum class HvKernel {
  kDp1,        ///< single Laplacian on u1, u2, T
  kDp2,        ///< biharmonic on u1, u2, T
  kBiharmDp3d  ///< biharmonic on dp
};

sw::KernelStats hypervis_openacc(sw::CoreGroup& cg, const homme::Dims& d,
                                 homme::State& s, const PackedGeometry& g,
                                 HvKernel which);

/// One dissipation kernel behind the declared-binding interface. The
/// four metric tiles it reads (jac, ginv11/12/22) are the leading tiles
/// of the packed geometry, so its geometry lease is the prefix [0, 4*16)
/// — a subset of what euler/rhs keep resident in a chain.
class HypervisKernel final : public Kernel {
 public:
  HypervisKernel(const StateBlocks& b, const PackedGeometry& g,
                 HvKernel which)
      : b_(b), g_(g), which_(which) {}

  std::string_view name() const override;
  void bind(Workset& ws) const override;
  std::size_t transient_bytes(const Workset& ws,
                              const KeepSet& keep) const override;
  void element(sw::Cpe& cpe, ElemCtx& ctx) const override;

 private:
  const StateBlocks& b_;
  const PackedGeometry& g_;
  HvKernel which_;
};

sw::KernelStats hypervis_athread(sw::CoreGroup& cg, const homme::Dims& d,
                                 homme::State& s, const PackedGeometry& g,
                                 HvKernel which);

}  // namespace accel
