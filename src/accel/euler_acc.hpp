#pragma once

#include "accel/kernel.hpp"
#include "accel/packed.hpp"
#include "sw/core_group.hpp"

/// \file euler_acc.hpp
/// The Sunway ports of euler_step — Table 1's most expensive kernel and
/// the paper's worked example (Algorithms 1 and 2).
///
/// The kernel takes one forward-Euler stage of homme's tracer advection
/// for every tracer, r = -div(u qdp) by homme::tracer_rhs_level, then
/// qdp += kPortDt * r: homme::element_tracer_rhs plus that update, bit for
/// bit. The tracer loop shares the non-q arrays (u1, u2, dp, geometry,
/// plus CAM's further derived fields, stood in for by EulerDerived's dummy
/// fields). dp is transferred as CAM's euler_step reads it (vstar =
/// vn0 / dp) but, like the dummies, does not enter the arithmetic:
///
/// * OpenACC variant (Algorithm 1): collapse(ie, q) iterations spread
///   over the CPEs; because copyin can only live inside the collapsed
///   loop, every (ie, q) iteration re-reads all shared arrays, chunked
///   over levels to fit the 64 KB LDM. Scalar arithmetic.
/// * Athread variant (Algorithm 2): a one-kernel pipeline, each CPE
///   taking whole elements; the shared arrays are DMA'd once per level
///   chunk of an element and *kept* in LDM across the whole q loop;
///   arithmetic is issued 4-wide.
///
/// Both variants compute bit-identical results (same tile arithmetic);
/// they differ in measured DMA traffic and modeled cycles. Both update
/// the state's own qdp chunks through a StateBlocks and read each
/// element's jac from the geometry image.

namespace accel {

/// The euler kernel's stand-ins for CAM's additional per-element derived
/// fields that the OpenACC code re-reads per tracer (dpdiss,
/// Qtens_biharmonic inputs, reciprocal metdet, ...). They are transferred
/// but not combined into the arithmetic, so variants stay bit-identical.
struct EulerDerived {
  int shared_extra = 0;       ///< stand-in fields
  std::vector<double> extra;  ///< [shared_extra][e][lev][16]
  /// \p shared_extra stand-ins for \p nelem elements of shape \p d.
  static EulerDerived make(const homme::Dims& d, int nelem,
                           int shared_extra = 4);
};

/// OpenACC-style port on the simulated CPE cluster. Updates s's qdp.
sw::KernelStats euler_openacc(sw::CoreGroup& cg, const homme::Dims& d,
                              homme::State& s, const PackedGeometry& g,
                              const EulerDerived& dv);

/// euler_step behind the declared-binding pipeline interface: geometry,
/// dp and the wind are keep-candidates shared across the tracer loop (and,
/// in a chain, with hypervis/remap); tracers stream level-chunked.
class EulerKernel final : public Kernel {
 public:
  EulerKernel(const StateBlocks& b, const PackedGeometry& g,
              const EulerDerived& dv)
      : b_(b), g_(g), dv_(dv) {}

  std::string_view name() const override { return "euler_step"; }
  void bind(Workset& ws) const override;
  std::size_t transient_bytes(const Workset& ws,
                              const KeepSet& keep) const override;
  void element(sw::Cpe& cpe, ElemCtx& ctx) const override;

 private:
  const StateBlocks& b_;
  const PackedGeometry& g_;
  const EulerDerived& dv_;
};

/// Athread fine-grained port (Algorithm 2), a one-kernel pipeline.
/// Updates s's qdp.
sw::KernelStats euler_athread(sw::CoreGroup& cg, const homme::Dims& d,
                              homme::State& s, const PackedGeometry& g,
                              const EulerDerived& dv);

}  // namespace accel
