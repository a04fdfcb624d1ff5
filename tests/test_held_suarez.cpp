#include "physics/held_suarez.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "homme/driver.hpp"
#include "homme/init.hpp"
#include "tc/tracker.hpp"
#include "tc/vortex.hpp"

namespace {

using homme::Dims;
using homme::fidx;
using mesh::kNpp;

TEST(HeldSuarez, EquilibriumProfileHasTheCanonicalStructure) {
  phys::HeldSuarezConfig cfg;
  // Warm equator, cold poles at the surface.
  const double eq = phys::held_suarez_teq(cfg, 0.0, homme::kP0, homme::kP0);
  const double pole =
      phys::held_suarez_teq(cfg, M_PI / 2, homme::kP0, homme::kP0);
  EXPECT_NEAR(eq, cfg.t_eq_max, 1e-9);
  EXPECT_NEAR(pole, cfg.t_eq_max - cfg.delta_t_y, 1e-9);
  // Stratospheric floor.
  EXPECT_EQ(phys::held_suarez_teq(cfg, 0.3, 100.0, homme::kP0), cfg.t_min);
  // Colder aloft than at the surface in the troposphere.
  EXPECT_LT(phys::held_suarez_teq(cfg, 0.0, 5.0e4, homme::kP0), eq);
}

TEST(HeldSuarez, RelaxationPullsTowardEquilibrium) {
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  Dims d;
  d.nlev = 6;
  d.qsize = 0;
  phys::HeldSuarezConfig cfg;
  auto s = homme::isothermal_rest(m, d, 260.0);
  // Distance to Teq before and after one long forcing step.
  auto distance = [&](const homme::State& state) {
    double acc = 0.0;
    for (int e = 0; e < m.nelem(); ++e) {
      const auto& g = m.geom(e);
      for (int k = 0; k < kNpp; ++k) {
        double run = homme::kPtop, ps = homme::kPtop;
        for (int lev = 0; lev < d.nlev; ++lev) {
          ps += state[static_cast<std::size_t>(e)].dp[fidx(lev, k)];
        }
        for (int lev = 0; lev < d.nlev; ++lev) {
          const double dp = state[static_cast<std::size_t>(e)].dp[fidx(lev, k)];
          const double p = run + 0.5 * dp;
          run += dp;
          const double teq = phys::held_suarez_teq(
              cfg, g.lat[static_cast<std::size_t>(k)], p, ps);
          const double diff =
              state[static_cast<std::size_t>(e)].T[fidx(lev, k)] - teq;
          acc += diff * diff;
        }
      }
    }
    return acc;
  };
  const double before = distance(s);
  phys::held_suarez_forcing(m, d, s, 6.0 * 3600.0, cfg);
  EXPECT_LT(distance(s), before);
}

TEST(HeldSuarez, FrictionDampsOnlyTheBoundaryLayer) {
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  Dims d;
  d.nlev = 10;
  d.qsize = 0;
  auto s = homme::solid_body_rotation(m, d, 30.0);
  auto before = s;
  phys::held_suarez_forcing(m, d, s, 3600.0);
  for (std::size_t e = 0; e < s.size(); e += 7) {
    // Top level (sigma << sigma_b): untouched winds.
    EXPECT_EQ(s[e].u1[fidx(0, 5)], before[e].u1[fidx(0, 5)]);
    // Bottom level: damped toward zero.
    EXPECT_LT(std::abs(s[e].u1[fidx(d.nlev - 1, 5)]),
              std::abs(before[e].u1[fidx(d.nlev - 1, 5)]) + 1e-15);
  }
}

TEST(HeldSuarez, DrivenDycoreDevelopsCirculationAndStaysStable) {
  // The canonical use: adiabatic dycore + HS forcing spun up from rest
  // develops winds (thermal-wind response to the imposed gradient) and
  // conserves mass.
  auto m = mesh::CubedSphere::build(3, mesh::kEarthRadius);
  Dims d;
  d.nlev = 6;
  d.qsize = 0;
  auto s = homme::isothermal_rest(m, d, 280.0);
  homme::Dycore dy(m, d, homme::DycoreConfig{});
  const auto d0 = homme::diagnose(m, d, s);
  for (int step = 0; step < 30; ++step) {
    dy.step(s);
    phys::held_suarez_forcing(m, d, s, dy.dt());
  }
  const auto d1 = homme::diagnose(m, d, s);
  // ~4 simulated hours against the 40-day relaxation: a weak but clearly
  // nonzero thermal-wind response (full spin-up takes ~200 days).
  EXPECT_GT(d1.max_wind, 0.02);
  EXPECT_LT(d1.max_wind, 150.0);
  EXPECT_NEAR(d1.dry_mass, d0.dry_mass, 1e-9 * d0.dry_mass);
  EXPECT_GT(d1.min_dp, 0.0);
}

// ---------------------------------------------------------------------------
// Tracker position sweep: cube-face centers, edges and corners.
// ---------------------------------------------------------------------------

struct Center {
  double lat, lon;
};

class TrackerSweep : public ::testing::TestWithParam<Center> {};

TEST_P(TrackerSweep, FindsTheVortexWhereverItSits) {
  const auto c = GetParam();
  auto m = mesh::CubedSphere::build(6, mesh::kEarthRadius);
  Dims d;
  d.nlev = 4;
  d.qsize = 0;
  tc::TcParams p;
  p.lat0 = c.lat;
  p.lon0 = c.lon;
  auto s = tc::tc_initial_state(m, d, p);
  const auto fix = tc::track(m, d, s);
  EXPECT_LT(tc::great_circle(fix.lat, fix.lon, p.lat0, p.lon0,
                             mesh::kEarthRadius),
            6.0e5)
      << "center (" << c.lat << "," << c.lon << ")";
  EXPECT_LT(fix.min_ps, homme::kP0 - 0.3 * p.dp_center);
}

INSTANTIATE_TEST_SUITE_P(
    FaceEdgeCorner, TrackerSweep,
    ::testing::Values(Center{0.0, 0.0},          // face center (+x)
                      Center{0.0, M_PI / 4},     // cube edge (equator)
                      Center{0.6155, M_PI / 4},  // cube corner vicinity
                      Center{0.9, 2.5},          // high latitude
                      Center{0.3, -3.0},         // near the date line
                      Center{-0.44, 1.2}));      // southern hemisphere

}  // namespace
