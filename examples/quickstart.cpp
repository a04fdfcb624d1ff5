// Quickstart: build a cubed-sphere mesh, initialize a baroclinic flow,
// run the dynamical core + physics for a simulated day, and watch the
// conservation diagnostics.
//
//   ./quickstart [ne] [nlev] [steps]

#include <cstdio>
#include <cstdlib>

#include "homme/driver.hpp"
#include "homme/euler.hpp"
#include "homme/init.hpp"
#include "physics/driver.hpp"

int main(int argc, char** argv) {
  const int ne = argc > 1 ? std::atoi(argv[1]) : 4;
  const int nlev = argc > 2 ? std::atoi(argv[2]) : 8;
  int steps = argc > 3 ? std::atoi(argv[3]) : 20;

  std::printf("Building cubed sphere ne=%d (%d elements, %d levels)...\n", ne,
              6 * ne * ne, nlev);
  auto mesh = mesh::CubedSphere::build(ne, mesh::kEarthRadius);

  homme::Dims dims;
  dims.nlev = nlev;
  dims.qsize = 1;

  auto state = homme::baroclinic(mesh, dims, /*u0=*/25.0, /*t0=*/290.0,
                                 /*amp=*/4.0);
  // Tracer 0 doubles as specific humidity for the physics.
  for (auto& es : state) {
    auto q = es.q_mut(0, dims);
    for (int lev = 0; lev < dims.nlev; ++lev) {
      const double sigma = (lev + 0.5) / dims.nlev;
      for (int k = 0; k < mesh::kNpp; ++k) {
        q[homme::fidx(lev, k)] =
            0.01 * sigma * sigma * es.dp[homme::fidx(lev, k)];
      }
    }
  }

  homme::Dycore dycore(mesh, dims, homme::DycoreConfig{});
  phys::PhysicsDriver physics(mesh, dims, phys::PhysicsConfig{});
  std::printf("dt = %.1f s, nu = %.3e m^4/s\n\n", dycore.dt(), dycore.nu());

  const auto d0 = homme::diagnose(mesh, dims, state);
  const double qmass0 = homme::tracer_mass(mesh, dims, state, 0);
  std::printf("%6s %14s %16s %10s %10s %10s\n", "step", "dry mass",
              "energy", "max|u|", "minT", "maxT");
  std::printf("%6d %14.6e %16.9e %10.2f %10.2f %10.2f\n", 0, d0.dry_mass,
              d0.total_energy, d0.max_wind, d0.min_t, d0.max_t);

  for (int s = 1; s <= steps; ++s) {
    dycore.step(state);
    auto pstats = physics.step(state, dycore.dt());
    if (s % 5 == 0 || s == steps) {
      const auto d = homme::diagnose(mesh, dims, state);
      std::printf("%6d %14.6e %16.9e %10.2f %10.2f %10.2f  (OLR %.1f W/m2, "
                  "precip %.2e)\n",
                  s, d.dry_mass, d.total_energy, d.max_wind, d.min_t, d.max_t,
                  pstats.mean_olr, pstats.mean_precip);
    }
  }

  const auto d1 = homme::diagnose(mesh, dims, state);
  std::printf("\nDry-mass drift over the run: %.2e (relative)\n",
              (d1.dry_mass - d0.dry_mass) / d0.dry_mass);
  std::printf("Tracer mass drift:           %.2e (relative; physics adds "
              "surface moisture)\n",
              homme::tracer_mass(mesh, dims, state, 0) / qmass0 - 1.0);
  return 0;
}
