#pragma once

#include <vector>

/// \file column.hpp
/// The column abstraction of CAM physics: every parameterization sees one
/// vertical column at a time (which is exactly why the paper's physics
/// port parallelizes columns across the CPE cluster — no horizontal data
/// dependence).
///
/// A column is templated on its lane type T: double is one column, and
/// homme::vpack is one column per lane, so the host driver runs four
/// adjacent GLL columns through one scheme call (homme/vpack.hpp's
/// lane-generic helpers). Column and ColumnDiag name the one-column forms.

namespace phys {

/// Physical constants shared by the physics suite.
inline constexpr double kLv = 2.501e6;     ///< latent heat of vaporization
inline constexpr double kRv = 461.5;       ///< water vapor gas constant
inline constexpr double kEps = 0.622;      ///< Rd/Rv
inline constexpr double kStefan = 5.67e-8; ///< Stefan-Boltzmann

/// The fixed surface data of a column that the schemes read: the
/// prescribed SST and the three library values the schemes take of it and
/// of the latitude. surface_at() computes them once per column, so a step
/// makes no libm call for them.
template <class T>
struct BasicSurface {
  T sst{};      ///< prescribed sea surface temperature, K
  T emit{};     ///< kStefan * sst^4: the surface's blackbody flux, W/m^2
  T es{};       ///< saturation_vapor_pressure(sst), Pa
  T cos_lat{};  ///< cosine of the column's latitude
};
using Surface = BasicSurface<double>;

/// The surface data of a column at latitude \p lat (radians) over an ocean
/// at \p sst (K): the one place every column's surface is filled.
Surface surface_at(double lat, double sst);

/// One atmospheric column (index 0 = model top, as in the dycore).
template <class T>
struct BasicColumn {
  int nlev = 0;
  T ps{};                ///< surface pressure, Pa
  BasicSurface<T> sfc{}; ///< fixed surface data (surface_at)
  std::vector<T> t;      ///< temperature, K
  std::vector<T> q;      ///< specific humidity (mixing ratio), kg/kg
  std::vector<T> u;      ///< eastward wind, m/s
  std::vector<T> v;      ///< northward wind, m/s
  std::vector<T> dp;     ///< layer pressure thickness, Pa
  std::vector<T> p;      ///< mid-level pressure, Pa
  /// Scheme scratch of 5 * nlev + 2 values (radiation needs the most):
  /// the schemes carve their temporaries from it, so a column reused
  /// across columns makes no heap allocation per column.
  std::vector<T> work;

  explicit BasicColumn(int levels)
      : nlev(levels),
        t(static_cast<std::size_t>(levels), T{}),
        q(static_cast<std::size_t>(levels), T{}),
        u(static_cast<std::size_t>(levels), T{}),
        v(static_cast<std::size_t>(levels), T{}),
        dp(static_cast<std::size_t>(levels), T{}),
        p(static_cast<std::size_t>(levels), T{}),
        work(static_cast<std::size_t>(5 * levels + 2), T{}) {}
};
using Column = BasicColumn<double>;

/// Per-column tendencies / diagnostics returned by the suite.
template <class T>
struct BasicColumnDiag {
  T precip{};       ///< surface precipitation rate, kg/m^2/s
  T olr{};          ///< outgoing (upwelling) longwave flux, W/m^2
  T shf{};          ///< surface sensible heat flux, W/m^2
  T lhf{};          ///< surface latent heat flux, W/m^2
  T net_heating{};  ///< column-integrated heating, W/m^2
};
using ColumnDiag = BasicColumnDiag<double>;

/// Saturation vapor pressure over water (Bolton 1980), Pa.
double saturation_vapor_pressure(double t);
/// Saturation mixing ratio at temperature \p t and pressure \p p.
double saturation_mixing_ratio(double t, double p);

}  // namespace phys
