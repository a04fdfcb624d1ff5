#pragma once

#include <cmath>
#include <functional>
#include <vector>

#include "homme/state.hpp"
#include "mesh/cubed_sphere.hpp"
#include "physics/modules.hpp"

/// \file driver.hpp
/// The physics driver: gathers every GLL column from the dycore state,
/// runs the parameterization suite, and scatters the result back. Tracer
/// 0 of the dycore is specific humidity. Columns are independent — the
/// property the paper's OpenACC physics port exploits by batching columns
/// over the 64 CPEs.

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

  const PhysicsConfig& config() const { return cfg_; }

 private:
  /// Fixed data of one column, built once: the prescribed SST and the
  /// Cartesian components of the local east (ex, ey; ez = 0) and north
  /// unit vectors that rotate the wind between contravariant and
  /// east/north components.
  struct ColumnConstants {
    double sst, ex, ey, nx, ny, nz;
  };

  const mesh::CubedSphere& mesh_;
  homme::Dims dims_;
  PhysicsConfig cfg_;
  std::vector<ColumnConstants> consts_;  ///< [elem * kNpp + gidx]
};

}  // namespace phys
