// Run the distributed dynamical core: the full dynamics step executed
// over MPI-style ranks with the redesigned bndry_exchangev, exactly the
// configuration the paper scales to 10 million cores — here a
// model::Session on the in-process mini-MPI, checked bit for bit against
// the one-rank run: every rank count sums each node in one order.
//
//   ./parallel_run [ne] [nranks] [steps]

#include <cstdio>
#include <cstdlib>

#include "homme/bndry.hpp"
#include "model/session.hpp"

int main(int argc, char** argv) {
  const int ne = argc > 1 ? std::atoi(argv[1]) : 4;
  const int nranks = argc > 2 ? std::atoi(argv[2]) : 6;
  const int steps = argc > 3 ? std::atoi(argv[3]) : 5;

  const auto base = model::SessionConfig{}
                        .with_ne(ne)
                        .with_levels(6, 1)
                        .with_init(scenario::InitSpec::baroclinic(
                            /*with_tracers=*/true, 25.0, 292.0, 4.0));

  // Distributed run with the redesigned (overlapped) boundary exchange.
  model::Session par(model::SessionConfig{base}
                         .with_ranks(nranks)
                         .with_exchange(homme::BndryExchange::Mode::kOverlap));
  const auto& part = par.bundle().partition;
  std::printf("ne%d: %d elements over %d ranks (SFC partition, "
              "%zu-%zu elements each)\n",
              ne, par.mesh().nelem(), nranks, part.rank_elems.back().size(),
              part.rank_elems.front().size());
  const homme::BndryExchange rank0(par.mesh(), part, par.bundle().plan, 0);
  const std::size_t boundary = rank0.boundary_elements().size();
  std::printf("rank 0 of %d: %d local elements (%zu interior, %zu "
              "boundary)\n",
              nranks, rank0.nlocal(),
              static_cast<std::size_t>(rank0.nlocal()) - boundary, boundary);

  const auto d0 = par.diagnose();
  par.run(steps);
  const auto d1 = par.diagnose();
  std::printf("dry mass drift over %d steps: %.2e (relative)\n", steps,
              (d1.dry_mass - d0.dry_mass) / d0.dry_mass);
  std::printf("max wind: %.2f -> %.2f m/s\n", d0.max_wind, d1.max_wind);

  // The one-rank run: the same bits, whatever the rank count.
  model::Session seq(base);
  seq.run(steps);
  const bool same = model::state_digest(seq.state(), steps) ==
                    model::state_digest(par.state(), steps);
  std::printf("state vs the one-rank run: %s\n",
              same ? "bit-identical" : "DIFFERENT");
  return same ? 0 : 1;
}
