#include <gtest/gtest.h>

#include <cmath>

#include "baselines/fv_core.hpp"
#include "baselines/mpas_core.hpp"
#include "baselines/nggps.hpp"
#include "mesh/cubed_sphere.hpp"
#include "scenario/registry.hpp"

namespace {

TEST(PpmRow, AdvectsPeriodicProfileConservatively) {
  std::vector<double> row(32);
  for (int i = 0; i < 32; ++i) {
    row[static_cast<std::size_t>(i)] = 1.0 + std::sin(2.0 * M_PI * i / 32);
  }
  double mass = 0;
  for (double v : row) mass += v;
  for (int s = 0; s < 40; ++s) baselines::ppm_advect_row(row, 0.4);
  double after = 0;
  for (double v : row) after += v;
  EXPECT_NEAR(after, mass, 1e-10 * mass);
}

TEST(PpmRow, MonotoneSchemePreservesBounds) {
  std::vector<double> row(64, 0.0);
  for (int i = 20; i < 30; ++i) row[static_cast<std::size_t>(i)] = 1.0;
  for (int s = 0; s < 100; ++s) baselines::ppm_advect_row(row, 0.3);
  for (double v : row) {
    EXPECT_GE(v, -1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

TEST(PpmRow, TranslatesSquareWaveTheRightDistance) {
  const int n = 100;
  std::vector<double> row(n, 0.0);
  for (int i = 10; i < 20; ++i) row[static_cast<std::size_t>(i)] = 1.0;
  // 50 steps at c = 0.5 -> shift by 25 cells.
  for (int s = 0; s < 50; ++s) baselines::ppm_advect_row(row, 0.5);
  // Center of mass should sit near cell 14.5 + 25.
  double com = 0, mass = 0;
  for (int i = 0; i < n; ++i) {
    com += i * row[static_cast<std::size_t>(i)];
    mass += row[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(com / mass, 14.5 + 25.0, 1.5);
}

TEST(FvCore, StepConservesMass) {
  baselines::FvCore fv(24, 48);
  for (int i = 0; i < 24; ++i) {
    for (int j = 0; j < 48; ++j) {
      fv.q(i, j) = 1.0 + 0.5 * std::sin(0.3 * i) * std::cos(0.2 * j);
    }
  }
  fv.set_flow(0.35, 0.25);
  const double before = fv.total_mass();
  for (int s = 0; s < 20; ++s) fv.step();
  EXPECT_NEAR(fv.total_mass(), before, 1e-9 * std::abs(before));
}

TEST(FvCore, StaysNonNegative) {
  baselines::FvCore fv(16, 32);
  fv.q(8, 16) = 10.0;
  fv.set_flow(0.4, 0.4);
  for (int s = 0; s < 30; ++s) fv.step();
  EXPECT_GE(fv.min_value(), -1e-12);
}

TEST(MpasCore, MeshHasClosedEdgeGraph) {
  auto m = mesh::CubedSphere::build(4, 1.0);
  baselines::MpasCore mpas(m);
  EXPECT_EQ(mpas.ncells(), m.nelem());
  // A closed quad tessellation has exactly 2 edges per cell.
  EXPECT_EQ(mpas.nedges(), 2 * m.nelem());
}

TEST(MpasCore, TransportConservesMass) {
  auto m = mesh::CubedSphere::build(4, mesh::kEarthRadius);
  baselines::MpasCore mpas(m);
  for (int c = 0; c < mpas.ncells(); ++c) {
    mpas.q(c) = 1.0 + 0.4 * std::sin(0.2 * c);
  }
  mpas.set_solid_body_flow(2.0e-6);
  const double before = mpas.total_mass();
  for (int s = 0; s < 20; ++s) mpas.step(200.0);
  EXPECT_NEAR(mpas.total_mass(), before, 1e-9 * std::abs(before));
}

TEST(MpasCore, UpwindSchemeDampsButDoesNotUndershoot) {
  auto m = mesh::CubedSphere::build(4, mesh::kEarthRadius);
  baselines::MpasCore mpas(m);
  for (int c = 0; c < mpas.ncells(); ++c) mpas.q(c) = 0.0;
  mpas.q(10) = 5.0;
  mpas.set_solid_body_flow(2.0e-6);
  for (int s = 0; s < 30; ++s) mpas.step(200.0);
  EXPECT_GE(mpas.min_value(), -1e-10);
}

TEST(Nggps, MeasuredCostsArePositive) {
  auto costs =
      baselines::measure_dycore_costs(scenario::get("nggps").config());
  EXPECT_GT(costs.homme, 0.0);
  EXPECT_GT(costs.fv3, 0.0);
  EXPECT_GT(costs.mpas, 0.0);
}

TEST(Nggps, ReproducesTable3Shape) {
  // Shape assertions use representative measured costs (an uninstrumented
  // host run) so the test does not depend on how a sanitizer or debugger
  // skews the three minis relative to each other; the bench itself always
  // measures live.
  baselines::DycoreCosts costs;
  costs.homme = 8.5e-8;
  costs.fv3 = 1.6e-7;
  costs.mpas = 2.7e-7;
  auto rows = baselines::run_nggps(costs);
  ASSERT_EQ(rows.size(), 6u);
  // 12.5 km: HOMME < FV3 < MPAS (Table 3 ordering).
  EXPECT_LT(rows[0].runtime_s, rows[1].runtime_s);
  EXPECT_LT(rows[1].runtime_s, rows[2].runtime_s);
  // 3 km: HOMME still fastest and its advantage has grown.
  EXPECT_LT(rows[3].runtime_s, rows[4].runtime_s);
  EXPECT_LT(rows[3].runtime_s, rows[5].runtime_s);
  const double adv12 = rows[2].runtime_s / rows[0].runtime_s;
  const double adv3 = rows[5].runtime_s / rows[3].runtime_s;
  EXPECT_GT(adv3, 0.8 * adv12);  // advantage does not collapse at 3 km
  // Anchored entry matches the paper exactly by construction.
  EXPECT_NEAR(rows[0].runtime_s, 2.712, 1e-9);
}

}  // namespace
