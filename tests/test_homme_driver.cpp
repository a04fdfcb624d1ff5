#include "homme/driver.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "alloc_counter.hpp"

#include "homme/exchange.hpp"
#include "homme/hypervis.hpp"
#include "homme/init.hpp"
#include "homme/ref_kernels.hpp"
#include "homme/scratch.hpp"
#include "mesh/cubed_sphere.hpp"

namespace {

using homme::Dims;
using homme::fidx;
using mesh::kNpp;

TEST(Hypervis, DampsNoiseButPreservesMean) {
  auto m = mesh::CubedSphere::build(3, mesh::kEarthRadius);
  homme::BndryExchange bx(m);
  Dims d;
  d.nlev = 2;
  d.qsize = 0;
  auto s = homme::isothermal_rest(m, d);
  // Add continuous (DSS'd) noise to T.
  unsigned seed = 123;
  for (auto& es : s) {
    for (double& t : es.T.mutable_span()) {
      seed = seed * 1664525u + 1013904223u;
      t += 5.0 * (static_cast<double>(seed % 1000) / 1000.0 - 0.5);
    }
  }
  auto Tp = homme::ref::field_ptrs(s, &homme::ElementState::T);
  bx.dss_levels(Tp, d.nlev);

  auto moments = [&] {
    double mean = 0.0, var = 0.0, area = 0.0;
    for (int e = 0; e < m.nelem(); ++e) {
      const auto& g = m.geom(e);
      const std::size_t se = static_cast<std::size_t>(e);
      for (int lev = 0; lev < d.nlev; ++lev) {
        for (int k = 0; k < kNpp; ++k) {
          const double w = g.mass[static_cast<std::size_t>(k)];
          mean += w * s[se].T[fidx(lev, k)];
          area += w;
        }
      }
    }
    mean /= area;
    for (int e = 0; e < m.nelem(); ++e) {
      const auto& g = m.geom(e);
      const std::size_t se = static_cast<std::size_t>(e);
      for (int lev = 0; lev < d.nlev; ++lev) {
        for (int k = 0; k < kNpp; ++k) {
          const double w = g.mass[static_cast<std::size_t>(k)];
          const double dev = s[se].T[fidx(lev, k)] - mean;
          var += w * dev * dev;
        }
      }
    }
    return std::pair{mean, var / area};
  };

  const auto [mean0, var0] = moments();
  // One nabla^4 step at the dycore's own coefficient and time step.
  homme::Dycore dy(m, d, homme::DycoreConfig{});
  homme::State work(s.size(), homme::ElementState(d));
  homme::hypervis_dp2(homme::Exchange(bx), d, s, work, dy.nu(), dy.dt());
  const auto [mean1, var1] = moments();
  EXPECT_NEAR(mean1, mean0, 1e-6 * std::abs(mean0));
  EXPECT_LT(var1, var0);
}

TEST(Hypervis, BiharmonicDp3dPreservesGlobalMass) {
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::BndryExchange bx(m);
  Dims d;
  d.nlev = 3;
  d.qsize = 0;
  auto s = homme::baroclinic(m, d, 20.0, 300.0, 10.0);
  auto mass = [&] {
    double total = 0.0;
    for (int e = 0; e < m.nelem(); ++e) {
      const auto& g = m.geom(e);
      for (int lev = 0; lev < d.nlev; ++lev) {
        for (int k = 0; k < kNpp; ++k) {
          total += g.mass[static_cast<std::size_t>(k)] *
                   s[static_cast<std::size_t>(e)].dp[fidx(lev, k)];
        }
      }
    }
    return total;
  };
  const double before = mass();
  homme::Dycore dy(m, d, homme::DycoreConfig{});
  homme::biharmonic_dp3d(homme::Exchange(bx), d, s, dy.nu(), dy.dt());
  EXPECT_NEAR(mass(), before, 1e-9 * before);
}

TEST(Dycore, IsothermalRestStaysAtRest) {
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  Dims d;
  d.nlev = 4;
  d.qsize = 0;
  auto s = homme::isothermal_rest(m, d);
  homme::Dycore dy(m, d, homme::DycoreConfig{});
  dy.run(s, 3);
  const auto diag = homme::diagnose(m, d, s);
  EXPECT_LT(diag.max_wind, 1e-8);
  EXPECT_NEAR(diag.max_t, 300.0, 1e-6);
  EXPECT_NEAR(diag.min_t, 300.0, 1e-6);
}

TEST(Dycore, BaroclinicRunConservesMassAndStaysFinite) {
  auto m = mesh::CubedSphere::build(3, mesh::kEarthRadius);
  Dims d;
  d.nlev = 6;
  d.qsize = 1;
  auto s = homme::baroclinic(m, d, 30.0, 300.0, 3.0);
  homme::init_tracers(m, d, s);
  homme::Dycore dy(m, d, homme::DycoreConfig{});
  const auto diag0 = homme::diagnose(m, d, s);
  dy.run(s, 10);
  const auto diag1 = homme::diagnose(m, d, s);
  EXPECT_NEAR(diag1.dry_mass, diag0.dry_mass, 1e-9 * diag0.dry_mass);
  EXPECT_GT(diag1.min_dp, 0.0);
  EXPECT_LT(diag1.max_wind, 150.0);
  EXPECT_TRUE(std::isfinite(diag1.total_energy));
  EXPECT_GT(diag1.min_t, 200.0);
  EXPECT_LT(diag1.max_t, 400.0);
  // Energy should be approximately conserved over a short adiabatic run
  // (hyperviscosity dissipates a little).
  EXPECT_NEAR(diag1.total_energy, diag0.total_energy,
              2e-3 * diag0.total_energy);
}

TEST(Dycore, SolidBodyRotationRemainsBalancedOverManySteps) {
  auto m = mesh::CubedSphere::build(3, mesh::kEarthRadius);
  Dims d;
  d.nlev = 4;
  d.qsize = 0;
  const double u0 = 20.0;
  auto s = homme::solid_body_rotation(m, d, u0);
  homme::Dycore dy(m, d, homme::DycoreConfig{});
  dy.run(s, 20);
  const auto diag = homme::diagnose(m, d, s);
  EXPECT_GT(diag.max_wind, 0.5 * u0);
  EXPECT_LT(diag.max_wind, 1.5 * u0);
  EXPECT_GT(diag.min_dp, 0.0);
}

TEST(Dycore, StepsInTwoSlabsOfArena) {
  // A slab is one field over all elements. Beside its state the dycore
  // holds one stage buffer (4 slabs) and the thread arena; the arena's
  // largest frame is the vector DSS's node accumulator (1.69 slabs at
  // this shape), since the tracer stages run in the state and a
  // biharmonic needs one scratch field.
  auto m = mesh::CubedSphere::build(8, mesh::kEarthRadius);
  Dims d;
  d.nlev = 16;
  d.qsize = 2;
  auto s = homme::baroclinic(m, d, 30.0, 300.0, 3.0);
  homme::init_tracers(m, d, s);
  homme::ScratchArena arena;
  homme::ScratchArena::Bind bind(arena);
  homme::Dycore dy(m, d, homme::DycoreConfig{});
  dy.run(s, 3);  // the third step remaps
  const std::size_t slab =
      static_cast<std::size_t>(m.nelem()) * d.field_size();
  EXPECT_LE(arena.capacity(), 2 * slab);
}

TEST(Dycore, WarmStepsAllocateNothing) {
  // A step's scratch comes from the thread's arena, which grows only in
  // the first steps: three warm steps, one of them remapping, make no
  // heap allocation, dry and moist, with hyperviscosity on.
  auto m = mesh::CubedSphere::build(4, mesh::kEarthRadius);
  for (bool moist : {false, true}) {
    SCOPED_TRACE(moist ? "moist" : "dry");
    Dims d;
    d.nlev = 8;
    d.qsize = 2;
    d.moist = moist;
    auto s = homme::baroclinic(m, d, 30.0, 300.0, 3.0);
    homme::init_tracers(m, d, s);
    homme::Dycore dy(m, d, homme::DycoreConfig{});
    dy.run(s, 3);  // warm: every phase has run, the third step remapped
    alloc_counter::arm();
    dy.run(s, 3);  // the sixth step remaps
    EXPECT_EQ(alloc_counter::disarm(), 0u);
  }
}

TEST(Dycore, StableDtScalesInverselyWithResolution) {
  auto m2 = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  auto m4 = mesh::CubedSphere::build(4, mesh::kEarthRadius);
  const double dt2 = homme::Dycore::stable_dt(m2);
  const double dt4 = homme::Dycore::stable_dt(m4);
  EXPECT_NEAR(dt2 / dt4, 2.0, 0.3);
}

}  // namespace
