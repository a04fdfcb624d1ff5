#include "homme/exchange.hpp"
#include "homme/rhs.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "homme/init.hpp"
#include "mesh/cubed_sphere.hpp"

namespace {

using homme::Dims;
using homme::fidx;
using mesh::kNpp;

TEST(ColumnScans, PressureMatchesSequentialSum) {
  Dims d;
  d.nlev = 12;
  std::vector<double> dp(d.field_size()), p(d.field_size());
  std::mt19937 rng(2);
  std::uniform_real_distribution<double> dist(10.0, 100.0);
  for (auto& x : dp) x = dist(rng);
  homme::column_pressure(d.nlev, dp.data(), p.data());
  for (int g = 0; g < kNpp; ++g) {
    double run = homme::kPtop;
    for (int lev = 0; lev < d.nlev; ++lev) {
      EXPECT_NEAR(p[fidx(lev, g)], run + 0.5 * dp[fidx(lev, g)], 1e-10);
      run += dp[fidx(lev, g)];
    }
  }
}

TEST(ColumnScans, GeopotentialDecreasesDownward) {
  Dims d;
  d.nlev = 16;
  std::vector<double> dp(d.field_size(), 700.0), T(d.field_size(), 280.0),
      p(d.field_size()), phi(d.field_size());
  std::vector<double> phis(kNpp, 1000.0);
  homme::column_pressure(d.nlev, dp.data(), p.data());
  homme::column_geopotential(d.nlev, T.data(), dp.data(), p.data(),
                             phis.data(), phi.data());
  for (int g = 0; g < kNpp; ++g) {
    // phi increases with height (decreasing lev index) and sits above the
    // surface geopotential.
    EXPECT_GT(phi[fidx(d.nlev - 1, g)], 1000.0);
    for (int lev = 0; lev + 1 < d.nlev; ++lev) {
      EXPECT_GT(phi[fidx(lev, g)], phi[fidx(lev + 1, g)]);
    }
  }
}

TEST(ColumnScans, GeopotentialMatchesIsothermalAnalytic) {
  // Isothermal atmosphere: phi(p) = phis + R T ln(ps/p) approximately
  // (midpoint-rule integration error is O(dp^2)).
  Dims d;
  d.nlev = 64;
  const double t0 = 300.0;
  std::vector<double> dp(d.field_size()), T(d.field_size(), t0),
      p(d.field_size()), phi(d.field_size());
  std::vector<double> phis(kNpp, 0.0);
  const double ps = homme::kP0;
  for (int lev = 0; lev < d.nlev; ++lev) {
    for (int g = 0; g < kNpp; ++g) {
      dp[fidx(lev, g)] = (ps - homme::kPtop) / d.nlev;
    }
  }
  homme::column_pressure(d.nlev, dp.data(), p.data());
  homme::column_geopotential(d.nlev, T.data(), dp.data(), p.data(),
                             phis.data(), phi.data());
  // Midpoint-rule integration of dp/p degrades where dp ~ p (near the
  // model top); compare in the well-resolved part of the column.
  for (int lev = 0; lev < d.nlev; lev += 7) {
    if (p[fidx(lev, 0)] < 0.3 * homme::kP0) continue;
    const double analytic =
        homme::kRgas * t0 * std::log(ps / p[fidx(lev, 0)]);
    EXPECT_NEAR(phi[fidx(lev, 0)], analytic, 0.01 * analytic + 1.0);
  }
}

TEST(ColumnScans, OmegaIsMinusAccumulatedDivergence) {
  Dims d;
  d.nlev = 8;
  std::vector<double> divdp(d.field_size()), omega(d.field_size());
  for (std::size_t i = 0; i < divdp.size(); ++i) {
    divdp[i] = 0.1 * static_cast<double>(i % 7) - 0.3;
  }
  homme::column_omega(d.nlev, divdp.data(), omega.data());
  for (int g = 0; g < kNpp; ++g) {
    double run = 0.0;
    for (int lev = 0; lev < d.nlev; ++lev) {
      EXPECT_NEAR(omega[fidx(lev, g)], -(run + 0.5 * divdp[fidx(lev, g)]),
                  1e-12);
      run += divdp[fidx(lev, g)];
    }
  }
}

TEST(Rhs, IsothermalRestIsSteady) {
  // At rest with uniform T and ps the RHS must vanish identically: no
  // pressure gradient, no geopotential gradient, no advection.
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::BndryExchange bx(m);
  Dims d;
  d.nlev = 6;
  d.qsize = 0;
  auto s = homme::isothermal_rest(m, d);
  homme::State out(s.size(), homme::ElementState(d));
  homme::compute_and_apply_rhs(homme::Exchange(bx), d, s, 100.0, out);
  for (std::size_t e = 0; e < s.size(); ++e) {
    for (std::size_t f = 0; f < d.field_size(); ++f) {
      EXPECT_NEAR(out[e].u1[f], 0.0, 1e-10);
      EXPECT_NEAR(out[e].u2[f], 0.0, 1e-10);
      EXPECT_NEAR(out[e].T[f] - s[e].T[f], 0.0, 1e-8);
      EXPECT_NEAR(out[e].dp[f] - s[e].dp[f], 0.0, 1e-8);
    }
  }
}

TEST(Rhs, SolidBodyRotationIsNearSteady) {
  // The balanced zonal flow is a steady state of the continuous
  // equations; one discrete step must barely change the wind relative to
  // the wind itself.
  auto m = mesh::CubedSphere::build(4, mesh::kEarthRadius);
  homme::BndryExchange bx(m);
  Dims d;
  d.nlev = 4;
  d.qsize = 0;
  const double u0 = 20.0;
  auto s = homme::solid_body_rotation(m, d, u0);
  homme::State out(s.size(), homme::ElementState(d));
  const double dt = 100.0;
  homme::compute_and_apply_rhs(homme::Exchange(bx), d, s, dt, out);
  // Measure physical wind change |du| vs u0.
  double max_du = 0.0;
  for (std::size_t e = 0; e < s.size(); ++e) {
    const auto& g = m.geom(static_cast<int>(e));
    for (int lev = 0; lev < d.nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        const std::size_t f = fidx(lev, k);
        const double d1 = out[e].u1[f] - s[e].u1[f];
        const double d2 = out[e].u2[f] - s[e].u2[f];
        const double sk = static_cast<std::size_t>(k);
        const double du2 = g.g11[sk] * d1 * d1 + 2.0 * g.g12[sk] * d1 * d2 +
                           g.g22[sk] * d2 * d2;
        max_du = std::max(max_du, std::sqrt(du2));
      }
    }
  }
  // Spatial truncation produces a small residual tendency; it must be a
  // tiny fraction of the flow per step.
  EXPECT_LT(max_du, 0.02 * u0);
}

TEST(Rhs, MassTendencyIntegralVanishes) {
  // d/dt integral(dp) = -integral(div(dp u)) = 0 on the closed sphere.
  auto m = mesh::CubedSphere::build(3, mesh::kEarthRadius);
  homme::BndryExchange bx(m);
  Dims d;
  d.nlev = 4;
  d.qsize = 0;
  auto s = homme::baroclinic(m, d, 30.0, 300.0, 5.0);
  homme::State out(s.size(), homme::ElementState(d));
  const double dt = 50.0;
  homme::compute_and_apply_rhs(homme::Exchange(bx), d, s, dt, out);
  double before = 0.0, after = 0.0;
  for (int e = 0; e < m.nelem(); ++e) {
    const auto& g = m.geom(e);
    const std::size_t se = static_cast<std::size_t>(e);
    for (int lev = 0; lev < d.nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        before += g.mass[static_cast<std::size_t>(k)] * s[se].dp[fidx(lev, k)];
        after += g.mass[static_cast<std::size_t>(k)] * out[se].dp[fidx(lev, k)];
      }
    }
  }
  EXPECT_NEAR(after, before, 1e-9 * before);
}

TEST(Rhs, OutputIsContinuousAcrossElements) {
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::BndryExchange bx(m);
  Dims d;
  d.nlev = 3;
  d.qsize = 0;
  auto s = homme::baroclinic(m, d);
  homme::State out(s.size(), homme::ElementState(d));
  homme::compute_and_apply_rhs(homme::Exchange(bx), d, s, 60.0, out);
  for (int node = 0; node < m.nnodes(); ++node) {
    const auto& owners = m.node_elems(node);
    if (owners.size() < 2) continue;
    for (int lev = 0; lev < d.nlev; ++lev) {
      const double t0 = out[static_cast<std::size_t>(owners[0].first)]
                            .T[fidx(lev, owners[0].second)];
      for (const auto& [e, k] : owners) {
        EXPECT_NEAR(out[static_cast<std::size_t>(e)].T[fidx(lev, k)], t0,
                    1e-9 * std::abs(t0) + 1e-9);
      }
    }
  }
}

TEST(Rhs, UpdateInPlaceMatchesSeparateOut) {
  // out may be in: an element's tendency reads only that element and is
  // complete before its update is written, and every DSS runs after the
  // element loop. Dry, and moist, where the tendency also reads the
  // humidity in the input's tracer 0.
  auto m = mesh::CubedSphere::build(3, mesh::kEarthRadius);
  homme::BndryExchange bx(m);
  auto same_bits = [](const homme::Chunk& a, const homme::Chunk& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
  };
  for (bool moist : {false, true}) {
    Dims d;
    d.nlev = 5;
    d.qsize = 2;
    d.moist = moist;
    // Two builds of one state: equal values and no shared chunk, so the
    // update in place really writes over its input.
    auto make = [&] {
      auto s = homme::baroclinic(m, d, 30.0, 300.0, 5.0);
      homme::init_tracers(m, d, s);
      return s;
    };
    const homme::State s = make();
    homme::State in_place = make();
    homme::State out(s.size(), homme::ElementState(d));
    homme::compute_and_apply_rhs(homme::Exchange(bx), d, s, 100.0, out);
    homme::compute_and_apply_rhs(homme::Exchange(bx), d, in_place, 100.0,
                                 in_place);
    for (std::size_t e = 0; e < s.size(); ++e) {
      ASSERT_TRUE(same_bits(in_place[e].u1, out[e].u1) &&
                  same_bits(in_place[e].u2, out[e].u2) &&
                  same_bits(in_place[e].T, out[e].T) &&
                  same_bits(in_place[e].dp, out[e].dp))
          << "moist " << moist << " element " << e;
    }
  }
}

}  // namespace
