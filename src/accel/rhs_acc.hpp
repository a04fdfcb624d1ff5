#pragma once

#include "accel/kernel.hpp"
#include "accel/packed.hpp"
#include "sw/core_group.hpp"

/// \file rhs_acc.hpp
/// Sunway ports of compute_and_apply_rhs (Table 1 kernel #1) — the kernel
/// whose OpenACC port came out 6x *slower* than a single Intel core, and
/// the showcase of the register-communication scan of section 7.4.
///
/// * OpenACC variant: the directive port cannot restructure the vertical
///   scans, so each CPE walks whole elements level by level, with every
///   "parallel region" staging its inputs from main memory again — a
///   stream of 16-double DMA transfers whose startup latency dominates.
/// * Athread variant: the Figure 2 decomposition. CPE column c owns
///   element base+c; CPE row r owns a 16-layer block. The pressure,
///   geopotential and omega scans run as 3-stage register-communication
///   scans along the CPE column; all state lives in LDM; arithmetic is
///   4-wide.
///
/// The kernel updates u, T, dp in place by dt * RHS, dt = kPortDt (the DSS
/// that follows in the full model is bndry_exchangev's job and measured
/// there). Both variants run homme::rhs_level for each level on a dry
/// workset (T is its own virtual temperature), so they compute
/// homme::element_rhs plus x += dt * tend: the OpenACC variant bit for bit,
/// the Athread variant within its register scans' reassociation of the
/// column sums. Both update the state's own chunks through a StateBlocks;
/// the Athread launch reads and writes them through its workset.

namespace accel {

/// OpenACC-style port. Updates s's u1, u2, T and dp.
sw::KernelStats rhs_openacc(sw::CoreGroup& cg, const homme::Dims& d,
                            homme::State& s, const PackedGeometry& g);

/// compute_and_apply_rhs in the pipeline layer. The kernel is
/// *non-fusible*: its vertical scans run as register communication along
/// whole CPE columns (Figure 2), which the element-major fused schedule
/// cannot express — so the pipeline runs it as a barrier through
/// launch() between fused segments.
class RhsKernel final : public Kernel {
 public:
  RhsKernel(const StateBlocks& b, const PackedGeometry& g) : b_(b), g_(g) {}

  std::string_view name() const override { return "compute_and_apply_rhs"; }
  bool fusible() const override { return false; }
  void validate(const Workset& ws) const override;
  void bind(Workset& ws) const override;
  sw::KernelStats launch(sw::CoreGroup& cg, const Workset& ws) const override;

 private:
  const StateBlocks& b_;
  const PackedGeometry& g_;
};

/// Athread fine-grained port with register-communication scans.
/// Requires d.nlev to be a multiple of the CPE row count (8).
sw::KernelStats rhs_athread(sw::CoreGroup& cg, const homme::Dims& d,
                            homme::State& s, const PackedGeometry& g);

}  // namespace accel
