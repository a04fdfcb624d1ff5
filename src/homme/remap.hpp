#pragma once

#include <span>
#include <stdexcept>

#include "homme/state.hpp"
#include "homme/vpack.hpp"

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

/// The field-independent half of a column's conservative remap, built once
/// per column and applied to u, v, T and every tracer: the source cell
/// widths and, for each interior target interface, either an early-out (at
/// or below the column bottom, at or above its top) or the source interval
/// it falls in with its four Hermite basis weights. Every remap in the
/// model goes through it: remap_column, vertical_remap_local and the CPE
/// RemapKernel.
///
/// One body serves one column (T = double) and one column per lane (T =
/// vpack): each lane walks its own interval cursor, gathers its own
/// interval's values, and takes its early-outs through lane masks, so a
/// lane's bits are its column's. Level l of lane i lives at
/// x[l * stride + i]: stride 1 for one contiguous column, kNpp for the
/// adjacent columns of an element's [lev][kNpp] tiles, which the plan then
/// remaps in place.
///
/// Its tables and apply()'s work buffers are carved from a ScratchArena;
/// a plan is valid until the arena frame open when it was built closes,
/// and serves one thread (apply() writes its work buffers).
template <class T>
class BasicColumnRemapPlan {
 public:
  /// Columns per plan: one per lane of T.
  static constexpr int kLanes = Lanes<T>::width;

  BasicColumnRemapPlan() = default;

  /// Plans the remap between the cumulative source and target mass
  /// coordinates \p xs and \p xt (nlev + 1 levels each, starting at 0).
  /// Checks nothing: the caller guards the columns first.
  BasicColumnRemapPlan(const double* xs, const double* xt, std::size_t stride,
                       std::size_t nlev, ScratchArena& arena);

  /// remap_column's guard and plan of one contiguous column (T = double):
  /// throws RemapError unless every layer thickness is positive and the
  /// two column masses agree to roundoff.
  static BasicColumnRemapPlan checked(std::span<const double> src_dp,
                                      std::span<const double> tgt_dp,
                                      ScratchArena& arena)
    requires(kLanes == 1);

  /// Remap \p q from source cell averages to target cell averages in
  /// place. \p src_dp and \p tgt_dp are the layer thicknesses whose
  /// cumulative sums the plan was built from, in the same layout as q.
  void apply(const double* src_dp, const double* tgt_dp, double* q,
             std::size_t stride) const;
  /// apply() on one contiguous column.
  void apply(std::span<const double> src_dp, std::span<const double> tgt_dp,
             std::span<double> q) const {
    apply(src_dp.data(), tgt_dp.data(), q.data(), 1);
  }

 private:
  BasicColumnRemapPlan(std::size_t nlev, ScratchArena& arena);
  void build(const double* xs, const double* xt, std::size_t stride);

  std::size_t nlev_ = 0;
  double* width_ = nullptr;  ///< nlev source cell widths
  /// One record per interior target interface (nlev - 1): the weights
  /// h00, h10*h, h01 and h11*h, the lanes' gather offsets into ys_ and
  /// slopes_ (ints), and the below / above early-out masks; kLanes
  /// doubles each.
  double* rec_ = nullptr;
  double* ys_ = nullptr;      ///< apply()'s work: nlev + 1 cumulative values
  double* slopes_ = nullptr;  ///< nlev + 1 Hermite slopes
  double* delta_ = nullptr;   ///< nlev secants
};

/// One column's plan, what remap_column and the OpenACC port use.
using ColumnRemapPlan = BasicColumnRemapPlan<double>;

/// The remap target: the reference thickness of layer \p lev in a column
/// whose layer thicknesses sum (from 0.0, top down) to \p mass — the
/// hybrid coordinate's layer at surface pressure ps = mass + ptop. The
/// one target formula of every remap in the model. \p T is double (one
/// column) or vpack (one lane per column).
template <class T>
T remap_target_dp(const HybridCoord& hc, int lev, T mass) {
  const double a0 = hc.hyai(lev) * kP0;
  const double a1 = hc.hyai(lev + 1) * kP0;
  const T ps = mass + kPtop;
  return (hc.hybi(lev + 1) * ps + a1) - (hc.hybi(lev) * ps + a0);
}

/// remap_target_dp for the kNpp columns of one element, 16 lanes at a
/// time: \p tgt[fidx(lev, k)] is the target of column k, whose mass is
/// \p mass[k]. vertical_remap_local and the CPE RemapKernel call it.
void remap_targets(const HybridCoord& hc, const double* mass, double* tgt);

/// The cumulative mass coordinate of an element's kNpp columns: \p x
/// [fidx(l, k)] (l = 0..nlev) is the sum of \p dp[fidx(0..l-1, k)] from 0.0
/// top down, scanned level by level in packs.
void cumulative_tiles(int nlev, const double* dp, double* x);

/// Whether all kNpp columns of an element pass the remap guard: every
/// source thickness \p dp and target thickness \p tgt positive, and the
/// column masses (the last level of their cumulative tiles \p xs and \p
/// xt) equal to roundoff. All arguments are [lev][kNpp] tiles.
bool tile_columns_remappable(int nlev, const double* dp, const double* tgt,
                             const double* xs, const double* xt);

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
