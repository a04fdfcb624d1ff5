#pragma once

#include <vector>

#include "homme/state.hpp"
#include "mesh/cubed_sphere.hpp"
#include "sw/cost_model.hpp"

/// \file packed.hpp
/// Flat "main memory" images of element data for the Sunway kernel ports.
///
/// The CPE cluster reaches main memory only through DMA, so the ported
/// kernels need the element state laid out in plain contiguous arrays the
/// simulator can transfer block-wise — this mirrors the data-layout work
/// that dominated the paper's refactoring. Synthetic worksets pack
/// geometry per element as kGeomTiles tiles (see GeomTile); a state pack
/// (Table 1's host references) carries only the prognostics.

namespace accel {

/// Geometry tiles packed per element (16 doubles each).
inline constexpr int kGeomTiles = 23;
/// Doubles of packed geometry per element.
inline constexpr int kGeomDoubles = kGeomTiles * mesh::kNpp;

struct PackedElems {
  int nelem = 0;
  int nlev = 0;
  int qsize = 0;

  std::vector<double> dvv;     ///< 16: GLL derivative matrix (row-major)
  std::vector<double> geom;    ///< [e][kGeomDoubles]
  std::vector<double> u1, u2, T, dp;  ///< [e][lev][16]
  std::vector<double> qdp;     ///< [e][q][lev][16]
  std::vector<double> phis;    ///< [e][16]

  std::size_t field_size() const {
    return static_cast<std::size_t>(nlev) * mesh::kNpp;
  }
  std::size_t elem_offset(int e) const {
    return static_cast<std::size_t>(e) * field_size();
  }
  std::size_t qdp_offset(int e, int q) const {
    return (static_cast<std::size_t>(e) * qsize + q) * field_size();
  }
  const double* geom_of(int e) const {
    return geom.data() + static_cast<std::size_t>(e) * kGeomDoubles;
  }

  /// Refill the prognostics (u1, u2, T, dp, qdp) from state entries
  /// [begin, end), reusing the arrays' capacity. Geometry, phis and the
  /// GLL table are left as they are.
  void from_state(const homme::Dims& d, const homme::State& s, int begin,
                  int end);
  /// Write those prognostics back into entries [begin, begin + nelem) of
  /// \p s — the inverse of from_state.
  void to_state(homme::State& s, int begin) const;
  /// Pack a synthetic smooth but non-trivial workset (for benches that do
  /// not want to build a big mesh state first).
  static PackedElems synthetic(const mesh::CubedSphere& m,
                               const homme::Dims& d, int nelem);
};

/// Geometry tile offsets within geom_of(e), in units of kNpp doubles. The
/// leading kMetricTiles (kJac..kG22) are in homme::MetricView's member
/// order and kA1X..kRhatZ in homme::FrameView's, so both views read
/// their tiles straight off a packed or staged block.
enum GeomTile {
  kJac = 0,
  kGinv11,
  kGinv12,
  kGinv22,
  kG11,
  kG12,
  kG22,
  kA1X,  ///< covariant basis a1 (3 tiles)
  kA1Y,
  kA1Z,
  kA2X,
  kA2Y,
  kA2Z,
  kB1X,  ///< dual basis b1 (3 tiles)
  kB1Y,
  kB1Z,
  kB2X,
  kB2Y,
  kB2Z,
  kRhatX,  ///< outward unit normal (3 tiles)
  kRhatY,
  kRhatZ,
  kCor  ///< Coriolis parameter 2*Omega*sin(lat)
};
inline constexpr int kMetricTiles = kG22 + 1;
static_assert(kRhatZ == kA1X + 14, "FrameView reads 15 consecutive tiles");

/// Analytic compulsory-traffic estimates used to price the cache-based
/// platforms (Intel core / MPE) in Table 1. flops are taken from the
/// simulator's retired-operation counters (same arithmetic on every
/// platform, as the paper's PERF methodology measures).
sw::WorkEstimate euler_step_work(const PackedElems& p);
sw::WorkEstimate rhs_work(const PackedElems& p);
sw::WorkEstimate remap_work(const PackedElems& p);
sw::WorkEstimate laplace_work(const PackedElems& p, int applications);

}  // namespace accel
