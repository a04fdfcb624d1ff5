// Energy/water bookkeeping of the physics suite plus an integration-level
// aquaplanet sanity run, and the LDM footprint planner.

#include <gtest/gtest.h>

#include <cmath>

#include "homme/driver.hpp"
#include "homme/init.hpp"
#include "physics/driver.hpp"
#include "sw/footprint.hpp"

namespace {

phys::Column tropical_column(int nlev) {
  phys::Column c(nlev);
  c.sfc = phys::surface_at(0.1, 301.0);
  c.ps = homme::kP0;
  double run = homme::kPtop;
  for (int k = 0; k < nlev; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    c.dp[sk] = (c.ps - homme::kPtop) / nlev;
    c.p[sk] = run + 0.5 * c.dp[sk];
    run += c.dp[sk];
    const double sigma = c.p[sk] / c.ps;
    c.t[sk] = 299.0 * std::pow(sigma, 0.19);
    c.q[sk] = 0.015 * sigma * sigma * sigma;
    c.u[sk] = 5.0;
  }
  return c;
}

TEST(PhysicsBudget, CondensationConservesMoistEnthalpy) {
  auto c = tropical_column(24);
  // Supersaturate a few layers.
  for (int k = 18; k < 24; ++k) {
    c.q[static_cast<std::size_t>(k)] *= 3.0;
  }
  const double h0 = phys::column_moist_enthalpy(c);
  phys::ColumnDiag diag;
  phys::large_scale_condensation(c, 900.0, diag);
  EXPECT_GT(diag.precip, 0.0);
  // cp*T + Lv*q is invariant under phase change (the latent heat released
  // exactly pays for the vapor removed).
  EXPECT_NEAR(phys::column_moist_enthalpy(c), h0, 1e-9 * h0);
}

TEST(PhysicsBudget, SurfaceFluxesDepositTheRightEnergy) {
  phys::SurfaceConfig cfg;
  cfg.k_pbl = 0.0;  // isolate the flux deposition
  auto c = tropical_column(16);
  c.t[15] = 295.0;  // cooler than the 301 K ocean
  const double h0 = phys::column_moist_enthalpy(c);
  phys::ColumnDiag diag;
  const double dt = 1200.0;
  phys::surface_and_pbl(cfg, c, dt, diag);
  const double h1 = phys::column_moist_enthalpy(c);
  // Column-integrated moist enthalpy gain = (SHF + LHF) * dt * g, up to
  // the kinetic energy removed by drag (small and negative).
  const double expected = (diag.shf + diag.lhf) * dt * homme::kGravity;
  EXPECT_NEAR(h1 - h0, expected, 0.02 * std::abs(expected));
}

TEST(PhysicsBudget, RadiationDiagnosticMatchesColumnHeating) {
  phys::RadiationConfig cfg;
  auto c = tropical_column(20);
  const double h0 = phys::column_moist_enthalpy(c);
  phys::ColumnDiag diag;
  const double dt = 1800.0;
  phys::gray_radiation(cfg, c, dt, diag);
  const double h1 = phys::column_moist_enthalpy(c);
  EXPECT_NEAR(h1 - h0, diag.net_heating * dt * homme::kGravity,
              1e-6 * std::abs(h0 - h1) + 1.0);
}

TEST(PhysicsBudget, AquaplanetDevelopsMeridionalGradient) {
  // Integration: starting ISOTHERMAL, a day of physics must imprint the
  // SST/insolation structure — warm tropics, cold poles — at the surface.
  auto m = mesh::CubedSphere::build(3, mesh::kEarthRadius);
  homme::Dims d;
  d.nlev = 8;
  d.qsize = 1;
  auto s = homme::isothermal_rest(m, d, 275.0);
  homme::Dycore dycore(m, d, homme::DycoreConfig{});
  phys::PhysicsDriver physics(m, d, phys::PhysicsConfig{});
  for (int step = 0; step < 30; ++step) {
    dycore.step(s);
    physics.step(s, dycore.dt());
  }
  double tropics = 0, tw = 0, poles = 0, pw = 0;
  for (int e = 0; e < m.nelem(); ++e) {
    const auto& g = m.geom(e);
    for (int k = 0; k < mesh::kNpp; ++k) {
      const std::size_t sk = static_cast<std::size_t>(k);
      const double t =
          s[static_cast<std::size_t>(e)].T[homme::fidx(d.nlev - 1, k)];
      const double w = g.mass[sk];
      if (std::abs(g.lat[sk]) < 0.3) {
        tropics += w * t;
        tw += w;
      } else if (std::abs(g.lat[sk]) > 1.0) {
        poles += w * t;
        pw += w;
      }
    }
  }
  EXPECT_GT(tropics / tw, poles / pw + 1.0);
}

TEST(FootprintPlanner, ChunksShrinkWithFieldCount) {
  const auto few = sw::plan_level_chunks(4, 128, 16 * 8);
  const auto many = sw::plan_level_chunks(24, 128, 16 * 8);
  EXPECT_GE(few.levels_per_chunk, many.levels_per_chunk);
  EXPECT_LE(few.chunks, many.chunks);
  EXPECT_LE(few.bytes_per_chunk, sw::kLdmBytes);
  EXPECT_LE(many.bytes_per_chunk, sw::kLdmBytes);
}

TEST(FootprintPlanner, SinglePassWhenEverythingFits) {
  const auto plan = sw::plan_level_chunks(2, 8, 16 * 8);
  EXPECT_TRUE(plan.single_pass);
  EXPECT_EQ(plan.chunks, 1);
  EXPECT_EQ(plan.levels_per_chunk, 8);
}

TEST(FootprintPlanner, RejectsImpossibleBodies) {
  EXPECT_THROW(sw::plan_level_chunks(1, 10, sw::kLdmBytes),
               std::invalid_argument);
  EXPECT_THROW(sw::plan_level_chunks(0, 10, 64), std::invalid_argument);
}

TEST(FootprintPlanner, HonorsThePaperChunkCap) {
  const auto plan = sw::plan_level_chunks(1, 1000, 8);
  EXPECT_LE(plan.levels_per_chunk, 32);  // the paper's s-step
}

}  // namespace
