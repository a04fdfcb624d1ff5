#pragma once

#include <array>
#include <cmath>
#include <functional>
#include <span>
#include <vector>

#include "homme/state.hpp"
#include "mesh/cubed_sphere.hpp"
#include "physics/modules.hpp"

/// \file driver.hpp
/// The physics driver: gathers every GLL column from the dycore state,
/// runs the parameterization suite, and scatters the result back. Tracer
/// 0 of the dycore is specific humidity. Columns are independent — the
/// property the paper's OpenACC physics port exploits by batching columns
/// over the 64 CPEs, and the one the host driver exploits by running four
/// adjacent columns of a [lev][kNpp] tile in the lanes of one vpack.

namespace phys {

struct PhysicsConfig {
  bool radiation = true;
  bool convection = true;
  bool condensation = true;
  bool surface_pbl = true;
  RadiationConfig rad{};
  SurfaceConfig sfc{};
  /// Prescribed SST as a function of (lat, lon); default: zonal profile
  /// with a 302 K tropical maximum. PhysicsDriver evaluates it once per
  /// column when it is built, so it must be a pure function of
  /// (lat, lon).
  std::function<double(double, double)> sst;

  PhysicsConfig() {
    sst = [](double lat, double /*lon*/) {
      const double s = std::sin(lat);
      return 302.0 - 30.0 * s * s;
    };
  }
};

/// A state's columns as flat arrays, the image the CPE physics ports
/// (accel/physics_acc.hpp) read and write: column e * kNpp + k is GLL
/// point k of element e. PhysicsDriver::pack fills it and unpack writes
/// it back.
struct PackedColumns {
  int ncols = 0;
  int nlev = 0;
  std::vector<double> t, q, u, v, dp, p;  ///< [col * nlev + lev]
  std::vector<double> ps;                 ///< [col]
  std::vector<Surface> sfc;               ///< [col]: the driver's surface

  std::size_t off(int col) const {
    return static_cast<std::size_t>(col) * nlev;
  }
};

/// Whole-domain physics diagnostics of one step.
struct PhysicsStats {
  double mean_precip = 0.0;  ///< area-weighted, kg/m^2/s
  double mean_olr = 0.0;     ///< area-weighted, W/m^2
  double mean_shf = 0.0;
  double mean_lhf = 0.0;
  double max_precip = 0.0;
  /// Upwelling longwave flux per element per GLL point (the field shown
  /// in Figure 9a/9b), [elem][gidx].
  std::vector<double> olr_field;
};

class PhysicsDriver {
 public:
  PhysicsDriver(const mesh::CubedSphere& m, const homme::Dims& d,
                PhysicsConfig cfg = {});

  /// Apply the suite to every column with physics time step \p dt.
  PhysicsStats step(homme::State& s, double dt);

  /// Load every column of \p s into \p img as step's gather loads it,
  /// one column at a time; \p img's arrays keep their capacity.
  void pack(const homme::State& s, PackedColumns& img) const;
  /// Store the columns of \p img back into \p s as step's scatter
  /// stores them (t, q, u and v; dp, p and ps are the physics' inputs).
  void unpack(const PackedColumns& img, homme::State& s) const;

  const PhysicsConfig& config() const { return cfg_; }

 private:
  using Tile = std::array<double, mesh::kNpp>;
  /// Fixed data of one element's columns, built once, one tile per
  /// quantity so that one pack loads four columns: the surface data
  /// (surface_at) and the Cartesian components of the local east (ex, ey;
  /// ez = 0) and north (nx, ny; nz = sfc.cos_lat) unit vectors that rotate
  /// the wind between contravariant and east/north components.
  struct ElementConstants {
    BasicSurface<Tile> sfc;
    Tile ex, ey, nx, ny;
  };
  /// One element's fields as physics reads and writes them, [lev][kNpp]:
  /// W is double where the fields are written back, const double where
  /// they are only read (pack).
  template <class W>
  struct BasicElementFields {
    std::span<const double> dp;
    std::span<W> qdp;  ///< tracer 0 (humidity) as q*dp; empty if none
    std::span<W> T, u1, u2;
  };
  using ElementFields = BasicElementFields<double>;

  /// Load the columns starting at GLL point \p k (one per lane of T) into
  /// \p c: the physical east/north wind from the contravariant
  /// components, the mixing ratio from q*dp, and the surface and
  /// mid-level pressures.
  template <class T, class W>
  static void gather(const BasicElementFields<W>& f,
                     const mesh::ElementGeom& g, const ElementConstants& ec,
                     int k, BasicColumn<T>& c);
  /// Store \p c back into the columns starting at GLL point \p k: the
  /// east/north wind back to contravariant components through the dual
  /// basis (homme::wind_to_contra's arithmetic, ez = 0).
  template <class T>
  static void scatter(const BasicColumn<T>& c, const mesh::ElementGeom& g,
                      const ElementConstants& ec, int k,
                      const ElementFields& f);

  const mesh::CubedSphere& mesh_;
  homme::Dims dims_;
  PhysicsConfig cfg_;
  std::vector<ElementConstants> consts_;  ///< [elem]
};

}  // namespace phys
