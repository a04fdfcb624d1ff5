// The distributed dynamics step: a multi-rank model::Session runs the one
// Dycore step per rank against its bndry_exchangev, and must step to the
// one-rank run's bits, conserve mass across ranks, and report the
// one-rank diagnostics, bitwise reproducible call to call.

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

  // Every rank count sums each node in ascending element id: the same
  // bits as one rank.
  EXPECT_EQ(par.step_count(), steps);
  EXPECT_EQ(model::state_digest(par.state(), steps),
            model::state_digest(one.state(), steps));
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
  EXPECT_EQ(d.dry_mass, ref.dry_mass);
  EXPECT_EQ(d.total_energy, ref.total_energy);
  EXPECT_EQ(d.max_wind, ref.max_wind);
  EXPECT_EQ(d.min_dp, ref.min_dp);
  EXPECT_EQ(d.max_t, ref.max_t);
  EXPECT_EQ(d.min_t, ref.min_t);
}

TEST(ParallelSession, DiagnosticsAreBitwiseReproducible) {
  // One pass over the assembled state in mesh order on the calling
  // thread, so an unchanged state yields one bit pattern however often it
  // is asked (an allreduce adding in thread-arrival order did not).
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
