#pragma once

#include <span>
#include <stdexcept>

#include "homme/state.hpp"
#include "mesh/cubed_sphere.hpp"

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

/// Conservatively remap one column. \p src_dp / \p tgt_dp are the source
/// and target layer thicknesses (same total mass); \p q holds the source
/// cell averages on input and receives target cell averages.
void remap_column(std::span<const double> src_dp,
                  std::span<const double> tgt_dp, std::span<double> q);

/// Remap the full state (u, T, tracers as mixing ratios) of every element
/// back to the reference hybrid levels implied by each column's surface
/// pressure, then reset dp to the reference thicknesses.
void vertical_remap(const mesh::CubedSphere& m, const Dims& d, State& s);

/// The same remap over every element of \p s regardless of mesh extent:
/// the remap is purely column-local, so this single implementation serves
/// the Dycore (s = the whole mesh or a rank's local subset) and the
/// accelerator's host-fallback path — all bit-identical.
void vertical_remap_local(const Dims& d, State& s);

}  // namespace homme
