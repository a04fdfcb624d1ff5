#pragma once

#include <span>
#include <stdexcept>

#include "homme/state.hpp"

/// \file remap.hpp
/// vertical_remap — Table 1 kernel: "compute the vertical flux needed to
/// get back to reference eta-coordinate levels".
///
/// The dynamics run on floating Lagrangian layers; after some number of
/// steps the deformed layer thicknesses dp are remapped back to the
/// reference hybrid profile. The remap interpolates the *cumulative* mass
/// integral of each quantity with a monotone cubic (Fritsch-Carlson)
/// spline and differences it at the target interfaces — conservative by
/// construction and free of overshoots, the same family of scheme CAM's
/// remap uses.

namespace homme {

/// A column handed to the remap is not remappable: non-positive layer
/// thickness (reachable under injected faults before rollback triggers)
/// or source/target column masses that disagree beyond roundoff. Thrown
/// in every build mode — in Release such a column used to be silently
/// remapped into NaN that propagated through qdp; now the failure
/// surfaces with the element / column / level named, in the same typed
/// spirit as sw::KernelFault, so the resilience layer (StateMonitor,
/// checkpoint retry) can react instead of inheriting poisoned state.
class RemapError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ScratchArena;

/// The field-independent half of one column's conservative remap, built
/// once per column and applied to u, v, T and every tracer: the source
/// cell widths and, for each interior target interface, either an
/// early-out (at or below the column bottom, at or above its top) or the
/// source interval it falls in with its four Hermite basis weights. Every
/// remap in the model goes through it: remap_column, vertical_remap_local
/// and the CPE RemapKernel.
///
/// Its tables and apply()'s work buffers are carved from a ScratchArena;
/// a plan is valid until the arena frame open when it was built closes,
/// and serves one thread (apply() writes its work buffers).
class ColumnRemapPlan {
 public:
  /// Arena doubles one plan of an \p nlev-level column takes.
  static std::size_t scratch_doubles(std::size_t nlev) {
    return 9 * nlev - 3;
  }

  ColumnRemapPlan() = default;

  /// Plans the remap between a column's cumulative source and target mass
  /// coordinates \p xs and \p xt (nlev + 1 entries each, starting at 0).
  /// Checks nothing: the caller guards the column first.
  ColumnRemapPlan(std::span<const double> xs, std::span<const double> xt,
                  ScratchArena& arena);

  /// remap_column's guard and plan: throws RemapError unless every layer
  /// thickness is positive and the two column masses agree to roundoff.
  static ColumnRemapPlan checked(std::span<const double> src_dp,
                                 std::span<const double> tgt_dp,
                                 ScratchArena& arena);

  /// Remap \p q from source cell averages to target cell averages in
  /// place. \p src_dp and \p tgt_dp are the layer thicknesses whose
  /// cumulative sums the plan was built from.
  void apply(std::span<const double> src_dp, std::span<const double> tgt_dp,
             std::span<double> q) const;

 private:
  ColumnRemapPlan(std::size_t nlev, ScratchArena& arena);
  void build(std::span<const double> xs, std::span<const double> xt);

  std::span<double> width_;  ///< nlev source cell widths
  /// nlev - 1 interior target interfaces: the source interval (an index,
  /// exact in a double) or kBelow / kAbove.
  std::span<double> at_;
  std::span<double> w_;  ///< 4 per interface: h00, h10*h, h01, h11*h
  std::span<double> ys_, slopes_, delta_;  ///< apply()'s work buffers
};

/// The remap target: the reference thickness of layer \p lev in a column
/// whose layer thicknesses sum (from 0.0, top down) to \p mass — the
/// hybrid coordinate's layer at surface pressure ps = mass + ptop. The
/// one target formula of every remap in the model. \p T is double (one
/// column) or vpack (one lane per column).
template <class T>
T remap_target_dp(const HybridCoord& hc, int lev, T mass) {
  const std::size_t k = static_cast<std::size_t>(lev);
  const double a0 = hc.hyai[k] * kP0;
  const double a1 = hc.hyai[k + 1] * kP0;
  const T ps = mass + kPtop;
  return (hc.hybi[k + 1] * ps + a1) - (hc.hybi[k] * ps + a0);
}

/// remap_target_dp for the kNpp columns of one element, 16 lanes at a
/// time: \p tgt[fidx(lev, k)] is the target of column k, whose mass is
/// \p mass[k]. vertical_remap_local and the CPE RemapKernel call it.
void remap_targets(const HybridCoord& hc, int nlev, const double* mass,
                   double* tgt);

/// Conservatively remap one column. \p src_dp / \p tgt_dp are the source
/// and target layer thicknesses (same total mass); \p q holds the source
/// cell averages on input and receives target cell averages.
void remap_column(std::span<const double> src_dp,
                  std::span<const double> tgt_dp, std::span<double> q);

/// Remap the full state (u, T, tracers as mixing ratios) of every element
/// of \p s back to the reference hybrid levels implied by each column's
/// surface pressure (remap_target_dp), then reset dp to the reference
/// thicknesses. The remap is purely column-local, so this single
/// implementation serves the Dycore (s = the whole mesh or a rank's local
/// subset), the accelerator's host-fallback path and the reference the
/// CPE remap ports are checked against — all bit-identical.
void vertical_remap_local(const Dims& d, State& s);

}  // namespace homme
