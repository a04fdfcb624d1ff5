// The distributed dynamics step: a multi-rank model::Session runs the one
// Dycore step per rank against its bndry_exchangev, and must agree with
// the one-rank run to the DSS reassociation bound, conserve mass across
// ranks, and report diagnostics that match the sequential sum and are
// bitwise reproducible call to call.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "homme/euler.hpp"
#include "model/session.hpp"

namespace {

using homme::BndryExchange;
using homme::State;
using model::Session;
using model::SessionConfig;

/// ne3, 4 levels, 1 tracer: the baroclinic wave with a strong bump.
SessionConfig small_config() {
  return SessionConfig{}.with_ne(3).with_levels(4, 1).with_init(
      scenario::InitSpec::baroclinic(/*with_tracers=*/true, 25.0, 295.0,
                                     4.0));
}

double max_rel_state_diff(const homme::Dims& d, const State& a,
                          const State& b) {
  double worst = 0.0;
  for (std::size_t e = 0; e < a.size(); ++e) {
    for (std::size_t f = 0; f < d.field_size(); ++f) {
      for (auto [x, y] : {std::pair{a[e].u1[f], b[e].u1[f]},
                          std::pair{a[e].u2[f], b[e].u2[f]},
                          std::pair{a[e].T[f], b[e].T[f]},
                          std::pair{a[e].dp[f], b[e].dp[f]}}) {
        const double scale = std::max({std::abs(x), std::abs(y), 1.0});
        worst = std::max(worst, std::abs(x - y) / scale);
      }
    }
  }
  return worst;
}

struct ParCase {
  int nranks;
  BndryExchange::Mode mode;
};

class ParallelSessionEquivalence : public ::testing::TestWithParam<ParCase> {
};

TEST_P(ParallelSessionEquivalence, MatchesOneRank) {
  const auto p = GetParam();
  const int steps = 4;
  Session one(small_config());
  one.run(steps);

  Session par(small_config().with_ranks(p.nranks).with_exchange(p.mode));
  par.run(steps);

  // Distributed DSS reassociates node sums across ranks: tolerance covers
  // the accumulated drift over 4 steps, nothing more.
  EXPECT_EQ(par.step_count(), steps);
  EXPECT_LT(max_rel_state_diff(one.dims(), one.state(), par.state()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndModes, ParallelSessionEquivalence,
    ::testing::Values(ParCase{1, BndryExchange::Mode::kOriginal},
                      ParCase{1, BndryExchange::Mode::kOverlap},
                      ParCase{4, BndryExchange::Mode::kOriginal},
                      ParCase{4, BndryExchange::Mode::kOverlap},
                      ParCase{7, BndryExchange::Mode::kOriginal},
                      ParCase{7, BndryExchange::Mode::kOverlap}));

TEST(ParallelSession, ConservesMassAcrossRanks) {
  Session s(SessionConfig{}
                .with_ne(3)
                .with_levels(4, 1)
                .with_ranks(4)
                .with_init(scenario::InitSpec::solid_body(
                    /*with_tracers=*/true, 20.0)));
  const State initial = s.state();
  const double mass0 = s.diagnose().dry_mass;
  s.run(5);
  const double mass1 = s.diagnose().dry_mass;
  EXPECT_NEAR(mass1, mass0, 1e-9 * mass0);

  const double tracer0 = homme::tracer_mass(s.mesh(), s.dims(), initial, 0);
  const double tracer1 = homme::tracer_mass(s.mesh(), s.dims(), s.state(), 0);
  EXPECT_NEAR(tracer1, tracer0, 1e-9 * tracer0);
}

TEST(ParallelSession, DiagnosticsMatchSequential) {
  const SessionConfig base = SessionConfig{}.with_ne(2).with_levels(3, 0);
  Session one(base);
  Session par(SessionConfig{base}.with_ranks(3));
  const homme::Diagnostics ref = one.diagnose();
  const homme::Diagnostics d = par.diagnose();
  EXPECT_NEAR(d.dry_mass, ref.dry_mass, 1e-9 * ref.dry_mass);
  EXPECT_NEAR(d.total_energy, ref.total_energy, 1e-9 * ref.total_energy);
  EXPECT_EQ(d.max_wind, ref.max_wind);
  EXPECT_EQ(d.min_dp, ref.min_dp);
  EXPECT_EQ(d.max_t, ref.max_t);
  EXPECT_EQ(d.min_t, ref.min_t);
}

TEST(ParallelSession, DiagnosticsAreBitwiseReproducible) {
  // The ranks' partial sums merge in rank order on the calling thread, so
  // an unchanged state yields one bit pattern however often it is asked
  // (an allreduce adding in thread-arrival order did not).
  Session s(SessionConfig{}.with_ranks(4));
  std::set<std::uint64_t> mass, energy;
  for (int i = 0; i < 200; ++i) {
    const homme::Diagnostics d = s.diagnose();
    mass.insert(std::bit_cast<std::uint64_t>(d.dry_mass));
    energy.insert(std::bit_cast<std::uint64_t>(d.total_energy));
  }
  EXPECT_EQ(mass.size(), 1u);
  EXPECT_EQ(energy.size(), 1u);
}

}  // namespace
