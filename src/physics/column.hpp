#pragma once

#include <vector>

/// \file column.hpp
/// The column abstraction of CAM physics: every parameterization sees one
/// vertical column at a time (which is exactly why the paper's physics
/// port parallelizes columns across the CPE cluster — no horizontal data
/// dependence).

namespace phys {

/// Physical constants shared by the physics suite.
inline constexpr double kLv = 2.501e6;     ///< latent heat of vaporization
inline constexpr double kRv = 461.5;       ///< water vapor gas constant
inline constexpr double kEps = 0.622;      ///< Rd/Rv
inline constexpr double kStefan = 5.67e-8; ///< Stefan-Boltzmann

/// One atmospheric column (index 0 = model top, as in the dycore).
struct Column {
  int nlev = 0;
  double lat = 0.0;
  double lon = 0.0;
  double ps = 0.0;        ///< surface pressure, Pa
  double sst = 0.0;       ///< prescribed sea surface temperature, K
  std::vector<double> t;  ///< temperature, K
  std::vector<double> q;  ///< specific humidity (mixing ratio), kg/kg
  std::vector<double> u;  ///< eastward wind, m/s
  std::vector<double> v;  ///< northward wind, m/s
  std::vector<double> dp; ///< layer pressure thickness, Pa
  std::vector<double> p;  ///< mid-level pressure, Pa
  /// Scheme scratch of 5 * nlev + 2 doubles (radiation needs the most):
  /// the schemes carve their temporaries from it, so a Column reused
  /// across columns makes no heap allocation per column.
  std::vector<double> work;

  explicit Column(int levels)
      : nlev(levels),
        t(static_cast<std::size_t>(levels), 0.0),
        q(static_cast<std::size_t>(levels), 0.0),
        u(static_cast<std::size_t>(levels), 0.0),
        v(static_cast<std::size_t>(levels), 0.0),
        dp(static_cast<std::size_t>(levels), 0.0),
        p(static_cast<std::size_t>(levels), 0.0),
        work(static_cast<std::size_t>(5 * levels + 2), 0.0) {}
};

/// Per-column tendencies / diagnostics returned by the suite.
struct ColumnDiag {
  double precip = 0.0;        ///< surface precipitation rate, kg/m^2/s
  double olr = 0.0;           ///< outgoing (upwelling) longwave flux, W/m^2
  double shf = 0.0;           ///< surface sensible heat flux, W/m^2
  double lhf = 0.0;           ///< surface latent heat flux, W/m^2
  double net_heating = 0.0;   ///< column-integrated heating, W/m^2
};

/// Saturation vapor pressure over water (Bolton 1980), Pa.
double saturation_vapor_pressure(double t);
/// Saturation mixing ratio at temperature \p t and pressure \p p.
double saturation_mixing_ratio(double t, double p);

}  // namespace phys
