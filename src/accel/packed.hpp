#pragma once

#include <vector>

#include "homme/state.hpp"
#include "mesh/cubed_sphere.hpp"
#include "sw/cost_model.hpp"

/// \file packed.hpp
/// The geometry image the Sunway kernel ports read beside the model's own
/// state.
///
/// The CPE cluster reaches main memory only through DMA, so the ports
/// need each element's metric terms laid out as one contiguous block the
/// simulator can transfer: kGeomTiles tiles per element (see GeomTile),
/// at base + e * kGeomDoubles. The prognostics are not copied: every port
/// reads and writes the homme::State's own chunks through per-element
/// block tables (StateBlocks, kernel.hpp).

namespace accel {

/// Geometry tiles packed per element (16 doubles each).
inline constexpr int kGeomTiles = 23;
/// Doubles of packed geometry per element.
inline constexpr int kGeomDoubles = kGeomTiles * mesh::kNpp;

struct PackedGeometry {
  std::vector<double> dvv;   ///< 16: GLL derivative matrix (row-major)
  std::vector<double> geom;  ///< [e][kGeomDoubles]

  const double* geom_of(int e) const {
    return geom.data() + static_cast<std::size_t>(e) * kGeomDoubles;
  }

  /// The image of \p nelem elements, element e taking the geometry of
  /// \p m's element e % m.nelem() (a small donor mesh stands in for a
  /// process's share of a large one).
  static PackedGeometry pack(const mesh::CubedSphere& m, int nelem);
};

/// A smooth but non-trivial state of \p nelem elements of shape \p d, with
/// phis = 0: the workset Table 1, the ablations and the machine model run
/// the ports on, without building a big mesh state first.
homme::State synthetic_state(const homme::Dims& d, int nelem);

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
/// platforms (Intel core / MPE) in Table 1, for \p nelem elements of shape
/// \p d. flops are taken from the simulator's retired-operation counters
/// (same arithmetic on every platform, as the paper's PERF methodology
/// measures).
sw::WorkEstimate euler_step_work(const homme::Dims& d, int nelem);
sw::WorkEstimate rhs_work(const homme::Dims& d, int nelem);
sw::WorkEstimate remap_work(const homme::Dims& d, int nelem);
sw::WorkEstimate laplace_work(const homme::Dims& d, int nelem,
                              int applications);

}  // namespace accel
