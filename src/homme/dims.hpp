#pragma once

#include <cstddef>

#include "mesh/geometry.hpp"

/// \file dims.hpp
/// Model dimensions, physical constants and the hybrid vertical
/// coordinate of the mini-CAM-SE dynamical core.
///
/// CAM-SE is vertically Lagrangian: during a dynamics step the model
/// levels float with the flow (no vertical advection terms), and
/// vertical_remap periodically maps the state back to these reference
/// hybrid levels — which is precisely why vertical_remap is one of the
/// six key kernels of Table 1.

namespace homme {

/// Dry air gas constant, J/kg/K.
inline constexpr double kRgas = 287.04;
/// Heat capacity at constant pressure, J/kg/K.
inline constexpr double kCp = 1004.64;
inline constexpr double kKappa = kRgas / kCp;
/// Reference surface pressure, Pa.
inline constexpr double kP0 = 1.0e5;
/// Gravity, m/s^2.
inline constexpr double kGravity = 9.80616;
/// Model top pressure, Pa.
inline constexpr double kPtop = 200.0;

/// Virtual-temperature coefficient: Tv = T * (1 + kZvir * q).
inline constexpr double kZvir = 0.6077;

/// Runtime dimensions of one model configuration.
struct Dims {
  int nlev = 128;  ///< vertical layers (paper configuration: 128)
  int qsize = 4;   ///< advected tracers
  /// Use virtual temperature (tracer 0 = specific humidity) in the
  /// hydrostatic and pressure-gradient terms, as CAM does. Off by
  /// default so the dry dynamical-core benchmarks stay self-contained.
  bool moist = false;

  std::size_t field_size() const {
    return static_cast<std::size_t>(nlev) * mesh::kNpp;
  }
};

/// Hybrid vertical coordinate: interface pressures
/// p_int(k) = hyai(k)*p0 + hybi(k)*ps, k = 0..nlev (0 = model top).
/// This build uses the sigma-like profile p_int = ptop*(1-eta) + ps*eta
/// with eta = k / nlev uniform, which keeps reference layers equally
/// thick. The coefficients are that formula, evaluated where they are
/// read, so a coordinate is its level count and making one allocates
/// nothing.
struct HybridCoord {
  int nlev = 0;

  static HybridCoord uniform(int nlev) { return {nlev}; }

  double hyai(int k) const { return (kPtop / kP0) * (1.0 - eta(k)); }
  double hybi(int k) const { return eta(k); }

  double p_int(int k, double ps) const { return hyai(k) * kP0 + hybi(k) * ps; }
  /// Reference layer thickness for surface pressure \p ps.
  double dp_ref(int k, double ps) const { return p_int(k + 1, ps) - p_int(k, ps); }

 private:
  double eta(int k) const { return static_cast<double>(k) / nlev; }
};

}  // namespace homme
