#include "baselines/nggps.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "baselines/fv_core.hpp"
#include "baselines/mpas_core.hpp"
#include "net/network_model.hpp"

namespace baselines {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-N wall time of a callable: robust to transient host load,
/// standard micro-benchmark practice.
template <typename F>
double best_of(int trials, F&& body) {
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    const double t0 = now_seconds();
    body();
    best = std::min(best, now_seconds() - t0);
  }
  return best;
}

}  // namespace

DycoreCosts measure_dycore_costs(const model::SessionConfig& homme) {
  DycoreCosts c;

  // All three are measured on the same host, so their *ratios* carry the
  // information; each is a full dynamics step per column-level:
  //   HOMME: the model's own step, measured whole (the RK stages, tracer
  //          advection, hyperviscosity and the remap share), so no
  //          multiplier.
  //   FV3:   one field, one level measured (incl. polar filter); x7 for
  //          ~5 prognostic fields and the acoustic/vertical substepping
  //          of a lean FV scheme.
  //   MPAS:  one field measured (3 RK sweeps included); x15 for 5 fields
  //          plus the C-grid reconstruction and tangential-velocity
  //          extras of the full solver.

  // HOMME (spectral element): one remap cycle of a Session, per step and
  // column-level (GLL points of every element times levels).
  {
    model::Session s(homme);
    const int steps = std::max(1, homme.remap_freq);
    const double dtm = best_of(3, [&] { s.run(steps); });
    c.homme = dtm / (steps * static_cast<double>(s.mesh().nelem()) *
                     mesh::kNpp * s.dims().nlev);
  }

  // FV3-style: dimension-split PPM advection plus polar filtering.
  {
    FvCore fv(96, 192);
    for (int i = 0; i < fv.nlat(); ++i) {
      for (int j = 0; j < fv.nlon(); ++j) {
        fv.q(i, j) = std::sin(0.1 * i) + std::cos(0.07 * j);
      }
    }
    fv.set_flow(0.4, 0.3);
    const int reps = 10;
    const double dtm = best_of(3, [&] { for (int r = 0; r < reps; ++r) fv.step(); });
    c.fv3 = 7.0 * dtm / (reps * static_cast<double>(fv.nlat()) * fv.nlon());
  }

  // MPAS-style: unstructured RK3 transport with indirect addressing.
  {
    auto m = mesh::CubedSphere::build(8, mesh::kEarthRadius);
    MpasCore mpas(m);
    for (int cell = 0; cell < mpas.ncells(); ++cell) {
      mpas.q(cell) = 1.0 + 0.3 * std::sin(0.05 * cell);
    }
    mpas.set_solid_body_flow(1.0e-6);
    const int reps = 20;
    const double dtm =
        best_of(3, [&] { for (int r = 0; r < reps; ++r) mpas.step(100.0); });
    c.mpas = 15.0 * dtm / (reps * static_cast<double>(mpas.ncells()));
  }
  return c;
}

std::vector<NggpsRow> run_nggps(const DycoreCosts& costs) {
  net::NetworkModel network;

  struct Workload {
    std::string name;
    double km;
    double forecast_s;
    long long columns;  ///< global grid columns at this resolution
  };
  // 12.5 km ~ ne256 (6.3M columns); 3 km ~ ne1024 (100M columns).
  const Workload workloads[2] = {
      {"12.5km/2h", 12.5, 2.0 * 3600.0, 6LL * 256 * 256 * 16},
      {"3km/30min", 3.0, 0.5 * 3600.0, 6LL * 1024 * 1024 * 16},
  };

  struct Entry {
    std::string name;
    long long procs12, procs3;
    double paper12, paper3;
    double percol;
    double dt_factor;  ///< stable dt relative to the SE core
  };
  const Entry entries[3] = {
      {"HOMME (this work)", 131072, 131072, 2.712, 14.379, costs.homme, 1.0},
      {"FV3", 110592, 110592, 3.56, 30.31, costs.fv3, 1.5},
      {"MPAS", 96000, 131072, 7.56, 64.80, costs.mpas, 1.2},
  };

  // Base time step of the SE core at 12.5 km (CAM-SE practice scaled).
  auto se_dt = [](double km) { return 35.0 * km / 12.5; };
  constexpr double kLevels = 128.0;

  // Host -> core-group compute scale, one factor for all three cores:
  // chosen so HOMME's 12.5 km step is ~70% compute (the paper attributes
  // ~23% of large runs to communication, section 7.6).
  const double homme_steps12 = workloads[0].forecast_s / se_dt(12.5);
  const double homme_local12 =
      static_cast<double>(workloads[0].columns) / 131072.0;
  const double t_step_paper = 2.712 / homme_steps12;
  const double cg_scale =
      0.7 * t_step_paper / (homme_local12 * kLevels * costs.homme);

  std::vector<NggpsRow> rows;
  double anchor = 1.0;
  for (int w = 0; w < 2; ++w) {
    const auto& wl = workloads[w];
    for (const auto& en : entries) {
      const long long procs = (w == 0) ? en.procs12 : en.procs3;
      const double dt = se_dt(wl.km) * en.dt_factor;
      const double steps = wl.forecast_s / dt;
      const double local =
          static_cast<double>(wl.columns) / static_cast<double>(procs);
      // Core-group utilization: few columns per process leave the 64
      // CPEs underfed (the paper: "in high-resolution cases, we have
      // enough compute to assign to the 65 cores").
      const double utilization = local / (local + 100.0);
      const double compute = local * kLevels * en.percol * cg_scale /
                             utilization;

      // Communication per step, per core's halo pattern.
      const double halo_bytes = 8.0 * 128.0 *  // doubles x levels
                                (4.0 * std::sqrt(local) + 4.0);
      double comm = 0.0;
      if (en.name.rfind("HOMME", 0) == 0) {
        // Overlapped (section 7.6): latency remainder only.
        comm = 8.0e-6 +
               std::max(0.0, network.halo_exchange_seconds(
                                 8, static_cast<std::size_t>(halo_bytes), 0.3) -
                                 0.8 * compute);
      } else if (en.name == "FV3") {
        // 4-neighbor halo, no overlap, plus the polar filter's
        // row-communicator reduction every step.
        comm = network.halo_exchange_seconds(
                   4, static_cast<std::size_t>(1.5 * halo_bytes), 0.3) +
               network.allreduce_seconds(static_cast<int>(procs / 64), 2048);
      } else {
        // MPAS: 6 neighbors, two-deep halo, exchanged on all 3 RK sweeps.
        comm = 3.0 * network.halo_exchange_seconds(
                         6, static_cast<std::size_t>(2.0 * halo_bytes), 0.3);
      }

      NggpsRow row;
      row.workload = wl.name;
      row.dycore = en.name;
      row.procs = procs;
      row.runtime_s = steps * (compute + comm);
      row.paper_s = (w == 0) ? en.paper12 : en.paper3;
      rows.push_back(row);
    }
  }

  // Normalize once: HOMME @ 12.5 km = 2.712 s (the paper's entry).
  anchor = 2.712 / rows[0].runtime_s;
  for (auto& r : rows) r.runtime_s *= anchor;
  return rows;
}

}  // namespace baselines
