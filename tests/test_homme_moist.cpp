// Moist dynamics (virtual temperature coupling) — the feedback of water
// vapor on the pressure-gradient and hydrostatic terms that CAM carries
// and the dry dycore benchmarks omit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "homme/driver.hpp"
#include "homme/exchange.hpp"
#include "homme/init.hpp"
#include "homme/rhs.hpp"
#include "mesh/cubed_sphere.hpp"

namespace {

using homme::Dims;
using homme::fidx;
using mesh::kNpp;

TEST(MoistDynamics, DryLimitIsExactlyTheDryCore) {
  // moist = true with zero humidity must be bit-identical to moist=false.
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::BndryExchange bx(m);
  Dims dry;
  dry.nlev = 4;
  dry.qsize = 1;
  dry.moist = false;
  Dims moist = dry;
  moist.moist = true;

  auto s = homme::baroclinic(m, dry, 25.0, 295.0, 3.0);
  // q = 0 everywhere.
  for (auto& es : s) {
    auto q = es.q_mut(0, dry);
    std::fill(q.begin(), q.end(), 0.0);
  }
  homme::State out_dry(s.size(), homme::ElementState(dry));
  homme::State out_moist(s.size(), homme::ElementState(moist));
  homme::compute_and_apply_rhs(homme::Exchange(bx), dry, s, 100.0, out_dry);
  homme::compute_and_apply_rhs(homme::Exchange(bx), moist, s, 100.0,
                               out_moist);
  for (std::size_t e = 0; e < s.size(); ++e) {
    ASSERT_EQ(out_dry[e].u1, out_moist[e].u1);
    ASSERT_EQ(out_dry[e].T, out_moist[e].T);
    ASSERT_EQ(out_dry[e].dp, out_moist[e].dp);
  }
}

TEST(MoistDynamics, MoistureChangesThePressureGradientResponse) {
  // A horizontally varying humidity field must alter the wind tendency
  // through the virtual-temperature term.
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::BndryExchange bx(m);
  Dims d;
  d.nlev = 4;
  d.qsize = 1;
  d.moist = true;
  auto s = homme::baroclinic(m, d, 20.0, 295.0, 3.0);
  for (int e = 0; e < m.nelem(); ++e) {
    const auto& g = m.geom(e);
    auto q = s[static_cast<std::size_t>(e)].q_mut(0, d);
    for (int lev = 0; lev < d.nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        const double qv =
            0.02 * std::exp(-4.0 * g.lat[static_cast<std::size_t>(k)] *
                            g.lat[static_cast<std::size_t>(k)]);
        q[fidx(lev, k)] =
            qv * s[static_cast<std::size_t>(e)].dp[fidx(lev, k)];
      }
    }
  }
  Dims dry = d;
  dry.moist = false;
  homme::State out_m(s.size(), homme::ElementState(d));
  homme::State out_d(s.size(), homme::ElementState(d));
  homme::compute_and_apply_rhs(homme::Exchange(bx), d, s, 100.0, out_m);
  homme::compute_and_apply_rhs(homme::Exchange(bx), dry, s, 100.0, out_d);
  double worst = 0.0;
  for (std::size_t e = 0; e < s.size(); ++e) {
    for (std::size_t f = 0; f < d.field_size(); ++f) {
      worst = std::max(worst, std::abs(out_m[e].u1[f] - out_d[e].u1[f]));
    }
  }
  EXPECT_GT(worst, 0.0);
}

TEST(MoistDynamics, MoistRestStateWithUniformHumidityStaysAtRest) {
  // Horizontally uniform q: Tv is horizontally uniform too, so the rest
  // state must remain exactly steady.
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::BndryExchange bx(m);
  Dims d;
  d.nlev = 4;
  d.qsize = 1;
  d.moist = true;
  auto s = homme::isothermal_rest(m, d);
  for (auto& es : s) {
    auto q = es.q_mut(0, d);
    for (int lev = 0; lev < d.nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        q[fidx(lev, k)] = 0.01 * es.dp[fidx(lev, k)];
      }
    }
  }
  homme::State out(s.size(), homme::ElementState(d));
  homme::compute_and_apply_rhs(homme::Exchange(bx), d, s, 500.0, out);
  for (std::size_t e = 0; e < s.size(); ++e) {
    for (std::size_t f = 0; f < d.field_size(); ++f) {
      ASSERT_NEAR(out[e].u1[f], 0.0, 1e-10);
      ASSERT_NEAR(out[e].u2[f], 0.0, 1e-10);
    }
  }
}

TEST(MoistDynamics, FullMoistStepRunsStably) {
  auto m = mesh::CubedSphere::build(3, mesh::kEarthRadius);
  Dims d;
  d.nlev = 6;
  d.qsize = 1;
  d.moist = true;
  auto s = homme::baroclinic(m, d, 25.0, 295.0, 3.0);
  for (auto& es : s) {
    auto q = es.q_mut(0, d);
    for (int lev = 0; lev < d.nlev; ++lev) {
      const double sigma = (lev + 0.5) / d.nlev;
      for (int k = 0; k < kNpp; ++k) {
        q[fidx(lev, k)] = 0.015 * sigma * sigma * es.dp[fidx(lev, k)];
      }
    }
  }
  homme::Dycore dy(m, d, homme::DycoreConfig{});
  const auto d0 = homme::diagnose(m, d, s);
  dy.run(s, 8);
  const auto d1 = homme::diagnose(m, d, s);
  EXPECT_NEAR(d1.dry_mass, d0.dry_mass, 1e-9 * d0.dry_mass);
  EXPECT_GT(d1.min_dp, 0.0);
  EXPECT_LT(d1.max_wind, 150.0);
  EXPECT_TRUE(std::isfinite(d1.total_energy));
}

TEST(MoistDynamics, EveryRkStageReadsTheStepsHumidity) {
  // One moist Dycore step with no hyperviscosity and no remap advances u,
  // T and dp by the SSP-RK3 composed from compute_and_apply_rhs whose
  // stage states carry the step's tracers: every stage reads the humidity
  // of the step's start, as stage 1 does and as HOMME reads qn0.
  auto m = mesh::CubedSphere::build(3, mesh::kEarthRadius);
  homme::BndryExchange bx(m);
  const homme::Exchange x(bx);
  Dims d;
  d.nlev = 6;
  d.qsize = 2;
  d.moist = true;
  auto s = homme::baroclinic(m, d, 25.0, 295.0, 3.0);
  homme::init_tracers(m, d, s);
  for (int e = 0; e < m.nelem(); ++e) {
    const auto& g = m.geom(e);
    auto q = s[static_cast<std::size_t>(e)].q_mut(0, d);
    for (int lev = 0; lev < d.nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        const double lat = g.lat[static_cast<std::size_t>(k)];
        q[fidx(lev, k)] = 0.02 * std::exp(-4.0 * lat * lat) *
                          s[static_cast<std::size_t>(e)].dp[fidx(lev, k)];
      }
    }
  }
  homme::DycoreConfig cfg;
  cfg.hypervis_on = false;
  cfg.remap_freq = 0;
  homme::Dycore dy(m, d, cfg);
  const double dt = dy.dt();

  // The stage state is a fork of s, so it carries s's tracers.
  auto blend = [&](double a, double b, homme::State& y) {
    for (std::size_t e = 0; e < y.size(); ++e) {
      for (auto field : {&homme::ElementState::u1, &homme::ElementState::u2,
                         &homme::ElementState::T, &homme::ElementState::dp}) {
        const homme::Chunk& xc = s[e].*field;
        std::span<double> yc = (y[e].*field).mutable_span();
        for (std::size_t f = 0; f < yc.size(); ++f) {
          yc[f] = a * xc[f] + b * yc[f];
        }
      }
    }
  };
  homme::State stage = s.fork();
  homme::compute_and_apply_rhs(x, d, s, dt, stage);
  homme::compute_and_apply_rhs(x, d, stage, dt, stage);
  blend(0.75, 0.25, stage);
  homme::compute_and_apply_rhs(x, d, stage, dt, stage);
  blend(1.0 / 3.0, 2.0 / 3.0, stage);

  homme::State stepped = s.fork();
  dy.step(stepped);
  auto same_bits = [](const homme::Chunk& a, const homme::Chunk& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
  };
  for (std::size_t e = 0; e < s.size(); ++e) {
    ASSERT_TRUE(same_bits(stepped[e].u1, stage[e].u1) &&
                same_bits(stepped[e].u2, stage[e].u2) &&
                same_bits(stepped[e].T, stage[e].T) &&
                same_bits(stepped[e].dp, stage[e].dp))
        << "element " << e;
  }
}

}  // namespace
