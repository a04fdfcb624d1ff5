#pragma once

#include "accel/kernel.hpp"
#include "physics/driver.hpp"
#include "sw/core_group.hpp"

/// \file physics_acc.hpp
/// The Sunway port of the physics suite. CAM's physics is hundreds of
/// column-independent schemes; the paper's port parallelizes columns over
/// the CPE cluster and fights the same LDM battle as the dycore:
///
/// * OpenACC variant: one parallel region *per scheme* (that is how the
///   directive refactoring of independently-authored modules comes out),
///   so every scheme re-stages its columns from main memory and every
///   region pays the spawn overhead.
/// * Athread variant: a CPE claims a column, stages it into the LDM
///   once, runs the whole suite on it, and writes it back once.
///
/// Both variants run on the column image phys::PhysicsDriver::pack takes
/// from a state, apply the schemes the driver's PhysicsConfig enables
/// with the exact phys:: module functions, and leave the image for
/// PhysicsDriver::unpack: the result is the driver's step, bit for bit.

namespace accel {

sw::KernelStats physics_openacc(sw::CoreGroup& cg, phys::PackedColumns& p,
                                const phys::PhysicsConfig& cfg, double dt);

/// One physics scheme (0=radiation, 1=convection, 2=condensation,
/// 3=surface/PBL) as a pipeline kernel over the column iteration space.
/// Fusing the suite keeps each column's six arrays resident in LDM across
/// it: the first scheme stages them, the rest hit the ledger, and the
/// writeback flushes the four prognostics once.
class PhysicsSchemeKernel final : public Kernel {
 public:
  PhysicsSchemeKernel(phys::PackedColumns& p, const phys::PhysicsConfig& cfg,
                      double dt, int scheme)
      : p_(p), cfg_(cfg), dt_(dt), scheme_(scheme) {}

  std::string_view name() const override;
  void bind(Workset& ws) const override;
  std::size_t transient_bytes(const Workset& ws,
                              const KeepSet& keep) const override;
  void element(sw::Cpe& cpe, ElemCtx& ctx) const override;

 private:
  phys::PackedColumns& p_;
  const phys::PhysicsConfig& cfg_;
  double dt_;
  int scheme_;
};

sw::KernelStats physics_athread(sw::CoreGroup& cg, phys::PackedColumns& p,
                                const phys::PhysicsConfig& cfg, double dt);

}  // namespace accel
