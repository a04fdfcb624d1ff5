#pragma once

#include <vector>

/// \file fv_core.hpp
/// A miniature FV3-style dynamical core: dimension-split finite-volume
/// advection with PPM reconstruction on a regular latitude-longitude
/// patch. Serves as the per-cell cost and algorithmic stand-in for the
/// GFDL FV3 column of Table 3 (the NGGPS comparison): cheap per cell,
/// regular memory access, but a narrower stability limit near the poles
/// (modeled by the polar-filter pass).

namespace baselines {

class FvCore {
 public:
  FvCore(int nlat, int nlon);

  int nlat() const { return nlat_; }
  int nlon() const { return nlon_; }
  double& q(int i, int j) { return q_[idx(i, j)]; }
  double q(int i, int j) const { return q_[idx(i, j)]; }

  /// Set a uniform flow (cells per step in each direction; |c| < 1).
  void set_flow(double cx, double cy) {
    cx_ = cx;
    cy_ = cy;
  }

  /// One dimension-split PPM advection step (periodic in longitude,
  /// reflecting at the latitude boundaries), plus a polar smoothing pass
  /// over the top/bottom bands (the cost analog of FV3's polar filter).
  void step();

  double total_mass() const;
  double min_value() const;

 private:
  std::size_t idx(int i, int j) const {
    return static_cast<std::size_t>(i) * nlon_ + j;
  }
  void advect_x(double c);
  void advect_y(double c);
  void polar_filter();

  int nlat_, nlon_;
  double cx_ = 0.0, cy_ = 0.0;
  std::vector<double> q_, scratch_;
};

/// Monotone PPM face reconstruction + upwind flux for one periodic row;
/// exposed for testing. \p c is the Courant number (|c| <= 1).
void ppm_advect_row(std::vector<double>& row, double c);

}  // namespace baselines
