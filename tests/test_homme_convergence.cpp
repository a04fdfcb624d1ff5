#include <gtest/gtest.h>

#include <cmath>

#include "homme/driver.hpp"
#include "homme/exchange.hpp"
#include "homme/init.hpp"
#include "homme/ops.hpp"
#include "homme/rhs.hpp"
#include "mesh/cubed_sphere.hpp"

namespace {

using homme::Dims;
using homme::fidx;
using mesh::kNpp;

/// Max physical wind tendency of one discrete step on the balanced
/// solid-body state: pure spatial truncation error.
double solid_body_residual(int ne) {
  auto m = mesh::CubedSphere::build(ne, mesh::kEarthRadius);
  homme::BndryExchange bx(m);
  Dims d;
  // Enough levels that the (horizontal-resolution-independent) vertical
  // midpoint-rule error does not mask the horizontal convergence.
  d.nlev = 24;
  d.qsize = 0;
  const double u0 = 20.0;
  auto s = homme::solid_body_rotation(m, d, u0);
  homme::State out(s.size(), homme::ElementState(d));
  const double dt = 1.0;  // per-second tendency
  homme::compute_and_apply_rhs(homme::Exchange(bx), d, s, dt, out);
  double worst = 0.0;
  // Restrict to the lower half of the column: near the model top the
  // midpoint hydrostatic integration error (dp/p ~ 1 there with uniform
  // levels) dominates and is independent of horizontal resolution.
  for (int e = 0; e < m.nelem(); ++e) {
    const auto& g = m.geom(e);
    const std::size_t se = static_cast<std::size_t>(e);
    for (int lev = d.nlev / 2; lev < d.nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        const std::size_t f = fidx(lev, k);
        const double d1 = out[se].u1[f] - s[se].u1[f];
        const double d2 = out[se].u2[f] - s[se].u2[f];
        const std::size_t sk = static_cast<std::size_t>(k);
        worst = std::max(worst,
                         std::sqrt(g.g11[sk] * d1 * d1 +
                                   2.0 * g.g12[sk] * d1 * d2 +
                                   g.g22[sk] * d2 * d2));
      }
    }
  }
  return worst;
}

TEST(Convergence, SolidBodyResidualShrinksWithResolution) {
  // Degree-3 elements: doubling ne should cut the truncation residual by
  // far more than 2x (spectral-ish for this smooth flow).
  const double e2 = solid_body_residual(2);
  const double e4 = solid_body_residual(4);
  const double e8 = solid_body_residual(8);
  EXPECT_LT(e4, e2 / 3.0);
  EXPECT_LT(e8, e4 / 3.0);
}

/// L2 error of the spectral gradient of a smooth function vs analytic.
double gradient_error(int ne) {
  auto m = mesh::CubedSphere::build(ne, 1.0);
  const mesh::Vec3 c = {0.4, -0.7, 1.1};
  double err2 = 0.0, area = 0.0;
  for (int e = 0; e < m.nelem(); ++e) {
    const auto& g = m.geom(e);
    double s[kNpp], g1[kNpp], g2[kNpp], gx[kNpp], gy[kNpp], gz[kNpp];
    for (int k = 0; k < kNpp; ++k) {
      s[k] = mesh::dot(c, g.pos[static_cast<std::size_t>(k)]);
    }
    homme::gradient_sphere(g, s, g1, g2);
    homme::contra_to_cart(g, g1, g2, gx, gy, gz);
    for (int k = 0; k < kNpp; ++k) {
      const auto& p = g.pos[static_cast<std::size_t>(k)];
      const double radial = mesh::dot(c, p);
      const double ex = gx[k] - (c[0] - radial * p[0]);
      const double ey = gy[k] - (c[1] - radial * p[1]);
      const double ez = gz[k] - (c[2] - radial * p[2]);
      const double w = g.mass[static_cast<std::size_t>(k)];
      err2 += w * (ex * ex + ey * ey + ez * ez);
      area += w;
    }
  }
  return std::sqrt(err2 / area);
}

TEST(Convergence, GradientConvergesAtHighOrder) {
  const double e2 = gradient_error(2);
  const double e4 = gradient_error(4);
  const double e8 = gradient_error(8);
  // Order >= 3: error ratio >= 8 per doubling.
  EXPECT_GT(e2 / e4, 7.0);
  EXPECT_GT(e4 / e8, 7.0);
}

TEST(Convergence, RestStateResidualIsExactAtEveryResolution) {
  // The discrete rest state must be steady independent of ne (a property,
  // not a convergence rate): pressure-gradient/geopotential cancellation
  // is exact for constant fields.
  for (int ne : {2, 3, 5}) {
    auto m = mesh::CubedSphere::build(ne, mesh::kEarthRadius);
    homme::BndryExchange bx(m);
    Dims d;
    d.nlev = 4;
    d.qsize = 0;
    auto s = homme::isothermal_rest(m, d);
    homme::State out(s.size(), homme::ElementState(d));
    homme::compute_and_apply_rhs(homme::Exchange(bx), d, s, 1000.0, out);
    for (std::size_t e = 0; e < s.size(); ++e) {
      for (std::size_t f = 0; f < d.field_size(); ++f) {
        ASSERT_NEAR(out[e].u1[f], 0.0, 1e-10) << "ne " << ne;
        ASSERT_NEAR(out[e].u2[f], 0.0, 1e-10);
      }
    }
  }
}

TEST(Convergence, EnergyDriftShrinksWithTimeStep) {
  // Halving dt must reduce the per-time energy drift of the adiabatic
  // core (3rd-order SSP-RK: local error ~ dt^4, global ~ dt^3).
  auto m = mesh::CubedSphere::build(3, mesh::kEarthRadius);
  Dims d;
  d.nlev = 4;
  d.qsize = 0;
  auto drift = [&](double dt_scale, int steps) {
    auto s = homme::baroclinic(m, d, 25.0, 295.0, 3.0);
    homme::DycoreConfig cfg;
    cfg.dt = homme::Dycore::stable_dt(m) * dt_scale;
    cfg.hypervis_on = false;  // isolate the time integrator
    cfg.remap_freq = 0;
    homme::Dycore dy(m, d, cfg);
    const auto d0 = homme::diagnose(m, d, s);
    dy.run(s, steps);
    const auto d1 = homme::diagnose(m, d, s);
    return std::abs(d1.total_energy - d0.total_energy) / d0.total_energy;
  };
  const double coarse = drift(1.0, 4);
  const double fine = drift(0.5, 8);  // same simulated time
  EXPECT_LT(fine, coarse);
}

}  // namespace
