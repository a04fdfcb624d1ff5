#include "baselines/fv_core.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace baselines {

namespace {

/// Monotonized-central slope limiter.
double limited_slope(double qm, double q0, double qp) {
  const double dc = 0.5 * (qp - qm);
  const double dl = 2.0 * (q0 - qm);
  const double dr = 2.0 * (qp - q0);
  if (dl * dr <= 0.0) return 0.0;
  const double mag = std::min({std::abs(dc), std::abs(dl), std::abs(dr)});
  return std::copysign(mag, dc);
}

}  // namespace

void ppm_advect_row(std::vector<double>& row, double c) {
  assert(std::abs(c) <= 1.0);
  const int n = static_cast<int>(row.size());
  std::vector<double> flux(static_cast<std::size_t>(n));
  // Flux through the right face of cell i over the step, PPM-lite
  // (limited parabola collapsed to the integrated upwind reconstruction).
  for (int i = 0; i < n; ++i) {
    if (c >= 0.0) {
      const int im = (i + n - 1) % n;
      const int ip = (i + 1) % n;
      const double s = limited_slope(row[static_cast<std::size_t>(im)],
                                     row[static_cast<std::size_t>(i)],
                                     row[static_cast<std::size_t>(ip)]);
      flux[static_cast<std::size_t>(i)] =
          c * (row[static_cast<std::size_t>(i)] + 0.5 * s * (1.0 - c));
    } else {
      const int ip = (i + 1) % n;
      const int ipp = (i + 2) % n;
      const double s = limited_slope(row[static_cast<std::size_t>(i)],
                                     row[static_cast<std::size_t>(ip)],
                                     row[static_cast<std::size_t>(ipp)]);
      flux[static_cast<std::size_t>(i)] =
          c * (row[static_cast<std::size_t>(ip)] - 0.5 * s * (1.0 + c));
    }
  }
  for (int i = 0; i < n; ++i) {
    const int im = (i + n - 1) % n;
    row[static_cast<std::size_t>(i)] +=
        flux[static_cast<std::size_t>(im)] - flux[static_cast<std::size_t>(i)];
  }
}

FvCore::FvCore(int nlat, int nlon)
    : nlat_(nlat), nlon_(nlon),
      q_(static_cast<std::size_t>(nlat) * nlon, 0.0),
      scratch_(static_cast<std::size_t>(std::max(nlat, nlon)), 0.0) {}

void FvCore::advect_x(double c) {
  std::vector<double> row(static_cast<std::size_t>(nlon_));
  for (int i = 0; i < nlat_; ++i) {
    for (int j = 0; j < nlon_; ++j) row[static_cast<std::size_t>(j)] = q(i, j);
    ppm_advect_row(row, c);
    for (int j = 0; j < nlon_; ++j) q(i, j) = row[static_cast<std::size_t>(j)];
  }
}

void FvCore::advect_y(double c) {
  // Treat latitude columns as periodic via a mirrored extension
  // (conservative reflecting boundary).
  std::vector<double> col(static_cast<std::size_t>(2 * nlat_));
  for (int j = 0; j < nlon_; ++j) {
    for (int i = 0; i < nlat_; ++i) {
      col[static_cast<std::size_t>(i)] = q(i, j);
      col[static_cast<std::size_t>(2 * nlat_ - 1 - i)] = q(i, j);
    }
    ppm_advect_row(col, c);
    for (int i = 0; i < nlat_; ++i) {
      q(i, j) = 0.5 * (col[static_cast<std::size_t>(i)] +
                       col[static_cast<std::size_t>(2 * nlat_ - 1 - i)]);
    }
  }
}

void FvCore::polar_filter() {
  // Zonal 1-2-1 smoothing over the polar bands (top/bottom 10%), the
  // cost analog of FV3's polar Fourier filtering.
  const int band = std::max(1, nlat_ / 10);
  auto smooth_row = [&](int i) {
    std::vector<double> row(static_cast<std::size_t>(nlon_));
    for (int j = 0; j < nlon_; ++j) {
      const int jm = (j + nlon_ - 1) % nlon_;
      const int jp = (j + 1) % nlon_;
      row[static_cast<std::size_t>(j)] =
          0.25 * q(i, jm) + 0.5 * q(i, j) + 0.25 * q(i, jp);
    }
    for (int j = 0; j < nlon_; ++j) q(i, j) = row[static_cast<std::size_t>(j)];
  };
  for (int i = 0; i < band; ++i) {
    smooth_row(i);
    smooth_row(nlat_ - 1 - i);
  }
}

void FvCore::step() {
  advect_x(cx_);
  advect_y(cy_);
  polar_filter();
}

double FvCore::total_mass() const {
  double s = 0.0;
  for (double v : q_) s += v;
  return s;
}

double FvCore::min_value() const {
  return *std::min_element(q_.begin(), q_.end());
}

}  // namespace baselines
