#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "homme/driver.hpp"
#include "homme/euler.hpp"
#include "homme/exchange.hpp"
#include "homme/init.hpp"
#include "homme/remap.hpp"
#include "mesh/cubed_sphere.hpp"

namespace {

using homme::Dims;
using homme::fidx;
using mesh::kNpp;

// ---------------------------------------------------------------------------
// euler_step (tracer advection)
// ---------------------------------------------------------------------------

TEST(EulerStep, ConservesTracerMass) {
  auto m = mesh::CubedSphere::build(3, mesh::kEarthRadius);
  homme::BndryExchange bx(m);
  Dims d;
  d.nlev = 4;
  d.qsize = 2;
  auto s = homme::solid_body_rotation(m, d, 40.0);
  homme::init_tracers(m, d, s);
  const double before0 = homme::tracer_mass(m, d, s, 0);
  const double before1 = homme::tracer_mass(m, d, s, 1);
  const double dt = homme::Dycore::stable_dt(m);
  for (int i = 0; i < 5; ++i) homme::euler_step(homme::Exchange(bx), d, s, dt);
  EXPECT_NEAR(homme::tracer_mass(m, d, s, 0), before0, 1e-10 * before0);
  EXPECT_NEAR(homme::tracer_mass(m, d, s, 1), before1, 1e-10 * before1);
}

TEST(EulerStep, LimiterKeepsTracersNonNegative) {
  auto m = mesh::CubedSphere::build(3, mesh::kEarthRadius);
  homme::BndryExchange bx(m);
  Dims d;
  d.nlev = 3;
  d.qsize = 1;
  auto s = homme::solid_body_rotation(m, d, 60.0);
  // A harsh initial condition: a near-delta tracer spike.
  for (int e = 0; e < m.nelem(); ++e) {
    auto q = s[static_cast<std::size_t>(e)].q_mut(0, d);
    std::fill(q.begin(), q.end(), 0.0);
  }
  {
    auto q = s[0].q_mut(0, d);
    for (int lev = 0; lev < d.nlev; ++lev) {
      q[fidx(lev, 5)] = 100.0 * s[0].dp[fidx(lev, 5)];
    }
  }
  const double dt = homme::Dycore::stable_dt(m);
  for (int i = 0; i < 10; ++i) {
    homme::euler_step(homme::Exchange(bx), d, s, dt, true);
  }
  for (int e = 0; e < m.nelem(); ++e) {
    auto q = s[static_cast<std::size_t>(e)].q(0, d);
    for (double v : q) EXPECT_GE(v, 0.0);
  }
}

TEST(EulerStep, ZeroWindLeavesTracersUnchanged) {
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::BndryExchange bx(m);
  Dims d;
  d.nlev = 3;
  d.qsize = 1;
  auto s = homme::isothermal_rest(m, d);
  homme::init_tracers(m, d, s);
  homme::State copy = s;
  homme::euler_step(homme::Exchange(bx), d, s, 500.0, false);
  for (std::size_t e = 0; e < s.size(); ++e) {
    auto q = s[e].q(0, d);
    auto q0 = copy[e].q(0, d);
    for (std::size_t f = 0; f < q.size(); ++f) {
      EXPECT_NEAR(q[f], q0[f], 1e-12 * std::abs(q0[f]) + 1e-14);
    }
  }
}

TEST(PositivityLimiter, ConservesElementMassAndClipsNegatives) {
  auto m = mesh::CubedSphere::build(2, 1.0);
  const auto& g = m.geom(0);
  const int nlev = 2;
  std::vector<double> qdp(static_cast<std::size_t>(nlev) * kNpp);
  std::mt19937 rng(4);
  std::uniform_real_distribution<double> dist(-0.3, 1.0);
  for (auto& x : qdp) x = dist(rng);
  // Per-level element mass before.
  std::vector<double> mass_before(nlev, 0.0);
  for (int lev = 0; lev < nlev; ++lev) {
    for (int k = 0; k < kNpp; ++k) {
      mass_before[static_cast<std::size_t>(lev)] +=
          g.mass[static_cast<std::size_t>(k)] * qdp[fidx(lev, k)];
    }
  }
  homme::positivity_limiter(g, nlev, qdp);
  for (int lev = 0; lev < nlev; ++lev) {
    double mass_after = 0.0;
    for (int k = 0; k < kNpp; ++k) {
      EXPECT_GE(qdp[fidx(lev, k)], 0.0);
      mass_after += g.mass[static_cast<std::size_t>(k)] * qdp[fidx(lev, k)];
    }
    if (mass_before[static_cast<std::size_t>(lev)] > 0.0) {
      EXPECT_NEAR(mass_after, mass_before[static_cast<std::size_t>(lev)],
                  1e-12);
    }
  }
}

// ---------------------------------------------------------------------------
// vertical_remap
// ---------------------------------------------------------------------------

TEST(RemapColumn, IdentityWhenGridsMatch) {
  std::vector<double> dp(10, 50.0);
  std::vector<double> q = {1, 2, 3, 4, 5, 5, 4, 3, 2, 1};
  auto q0 = q;
  homme::remap_column(dp, dp, q);
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_NEAR(q[i], q0[i], 1e-12);
  }
}

TEST(RemapColumn, ConservesMass) {
  std::mt19937 rng(9);
  std::uniform_real_distribution<double> dist(0.5, 2.0);
  const int n = 24;
  std::vector<double> src(n), tgt(n), q(n);
  double total = 0.0;
  for (int k = 0; k < n; ++k) {
    src[static_cast<std::size_t>(k)] = dist(rng);
    total += src[static_cast<std::size_t>(k)];
    q[static_cast<std::size_t>(k)] = dist(rng);
  }
  // Target: uniform grid with the same total mass.
  for (auto& x : tgt) x = total / n;
  double mass_before = 0.0;
  for (int k = 0; k < n; ++k) {
    mass_before += q[static_cast<std::size_t>(k)] * src[static_cast<std::size_t>(k)];
  }
  homme::remap_column(src, tgt, q);
  double mass_after = 0.0;
  for (int k = 0; k < n; ++k) {
    mass_after += q[static_cast<std::size_t>(k)] * tgt[static_cast<std::size_t>(k)];
  }
  EXPECT_NEAR(mass_after, mass_before, 1e-10 * std::abs(mass_before));
}

TEST(RemapColumn, PreservesConstantField) {
  std::vector<double> src = {10, 20, 30, 40, 25, 15};
  const double total = 140.0;
  std::vector<double> tgt(6, total / 6.0);
  std::vector<double> q(6, 3.25);
  homme::remap_column(src, tgt, q);
  for (double v : q) EXPECT_NEAR(v, 3.25, 1e-12);
}

TEST(RemapColumn, MonotoneDataStaysWithinBounds) {
  std::mt19937 rng(13);
  std::uniform_real_distribution<double> dist(0.5, 1.5);
  const int n = 32;
  std::vector<double> src(n), tgt(n), q(n);
  double total = 0.0;
  for (int k = 0; k < n; ++k) {
    src[static_cast<std::size_t>(k)] = dist(rng);
    total += src[static_cast<std::size_t>(k)];
    q[static_cast<std::size_t>(k)] = static_cast<double>(k);  // monotone
  }
  for (auto& x : tgt) x = total / n;
  homme::remap_column(src, tgt, q);
  // Monotone (Fritsch-Carlson) interpolation of the cumulative integral
  // guarantees non-negativity for monotone data and bounds local slopes
  // by 3x the neighbouring secants.
  for (double v : q) {
    EXPECT_GE(v, 0.0 - 1e-9);
    EXPECT_LE(v, 3.0 * (n - 1.0) + 1e-9);
  }
}

TEST(VerticalRemap, RestoresReferenceThicknessAndConserves) {
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  Dims d;
  d.nlev = 8;
  d.qsize = 1;
  auto s = homme::solid_body_rotation(m, d, 30.0);
  homme::init_tracers(m, d, s);
  // Deform the layers (keeping column mass): move mass downward.
  for (auto& es : s) {
    auto dp = es.dp.mutable_span();
    for (int k = 0; k < kNpp; ++k) {
      const double delta = 0.2 * dp[fidx(0, k)];
      dp[fidx(0, k)] -= delta;
      dp[fidx(d.nlev - 1, k)] += delta;
    }
  }
  const double mass_before = homme::tracer_mass(m, d, s, 0);
  homme::vertical_remap_local(d, s);
  EXPECT_NEAR(homme::tracer_mass(m, d, s, 0), mass_before,
              1e-10 * mass_before);
  const homme::HybridCoord hc = homme::HybridCoord::uniform(d.nlev);
  for (auto& es : s) {
    for (int k = 0; k < kNpp; ++k) {
      double ps = homme::kPtop;
      for (int lev = 0; lev < d.nlev; ++lev) ps += es.dp[fidx(lev, k)];
      for (int lev = 0; lev < d.nlev; ++lev) {
        EXPECT_NEAR(es.dp[fidx(lev, k)], hc.dp_ref(lev, ps),
                    1e-9 * hc.dp_ref(lev, ps));
      }
    }
  }
}

}  // namespace
