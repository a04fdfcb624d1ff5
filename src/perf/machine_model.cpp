#include "perf/machine_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>

#include "accel/remap_acc.hpp"
#include "accel/table1.hpp"
#include "sw/cg_pool.hpp"
#include "sw/cost_model.hpp"

namespace perf {

std::string to_string(Version v) {
  switch (v) {
    case Version::kOriginal: return "ori";
    case Version::kOpenAcc: return "openacc";
    case Version::kAthread: return "athread";
  }
  return "?";
}

namespace {

/// Fraction of whole-CAM runtime that no port accelerates (MPE-side
/// sequential work, pack/unpack, scheme glue, I/O). Derived from the
/// paper's own Figure 6 ratios: OpenACC gains 1.4-1.5x and Athread
/// another 1.1-1.4x over the full model although the kernels themselves
/// gain 22x / 50x — classic Amdahl with ~55% unaccelerated.
constexpr double kSerialFraction = 0.55;

int version_index(Version v) { return static_cast<int>(v); }

}  // namespace

MachineModel MachineModel::calibrate(int nlev, int qsize, int nelem,
                                     int active_cgs) {
  MachineModel m;
  m.nlev = nlev;
  m.qsize = qsize;
  m.active_cgs = std::max(1, active_cgs);

  homme::Dims d;
  d.nlev = nlev;
  d.qsize = qsize;
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  const homme::State base = accel::synthetic_state(d, nelem);
  const auto geo = accel::PackedGeometry::pack(mesh, nelem);
  const auto derived = accel::EulerDerived::make(d, nelem);

  // All measurements run on group 0 of a real pool so DMA costs sample
  // the shared memory controller. First the contention curve: the most
  // bandwidth-bound kernel (vertical remap) under 1..active_cgs
  // concurrently declared streams.
  sw::CgPool pool(m.active_cgs);
  sw::CoreGroup& cg = pool.group(0);
  std::vector<double> probe_s;
  std::vector<double> probe_bw;
  for (int n = 1; n <= m.active_cgs; ++n) {
    std::vector<sw::MemoryContention::StreamGuard> streams;
    streams.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) streams.emplace_back(pool.contention());
    homme::State probe = base;
    const sw::KernelStats st = accel::remap_athread(cg, d, probe);
    probe_s.push_back(st.seconds);
    probe_bw.push_back(
        static_cast<double>(st.totals.total_dma_bytes()) / st.seconds / 1e9);
  }
  for (int n = 1; n <= m.active_cgs; ++n) {
    const std::size_t i = static_cast<std::size_t>(n - 1);
    m.contention.push_back({n, probe_s[i] / probe_s[0], probe_bw[i]});
  }
  m.contention_slowdown = m.contention.back().slowdown;

  // Per-element costs, measured with the processor fully loaded: the
  // sibling groups' streams stay declared while every piece runs, so
  // acc/ath seconds are the contended ones.
  std::vector<sw::MemoryContention::StreamGuard> load;
  load.reserve(static_cast<std::size_t>(m.active_cgs));
  for (int i = 0; i < m.active_cgs; ++i) load.emplace_back(pool.contention());

  // One dynamics step = 3 RK stages + 3 tracer stages + hyperviscosity +
  // biharmonic + 1/3 vertical remap (remap every 3rd step), priced on
  // Table 1's kernels in this order.
  const std::vector<accel::Table1Kernel> kernels =
      accel::table1_kernels(mesh, d, nelem, geo, derived);
  struct Piece {
    std::string_view name;
    double weight;
  };
  constexpr Piece kStep[] = {{"compute_and_apply_rhs", 3.0},
                             {"euler_step", 3.0},
                             {"hypervis_dp2", 1.0},
                             {"biharmonic_dp3d", 1.0},
                             {"vertical_remap", 1.0 / 3.0}};
  double acc_s = 0.0, ath_s = 0.0, mpe_s = 0.0, flops = 0.0;
  for (const Piece& pc : kStep) {
    const auto k = std::find_if(
        kernels.begin(), kernels.end(),
        [&pc](const accel::Table1Kernel& x) { return x.name == pc.name; });
    if (k == kernels.end()) {
      throw std::logic_error("calibrate: Table 1 lists no " +
                             std::string(pc.name));
    }
    homme::State p1 = base;
    const sw::KernelStats acc = k->acc(cg, p1);
    homme::State p2 = base;
    const sw::KernelStats ath = k->athread(cg, p2);
    acc_s += pc.weight * acc.seconds;
    ath_s += pc.weight * ath.seconds;
    sw::WorkEstimate w = k->work;
    w.flops = ath.totals.total_flops();
    mpe_s += pc.weight * sw::roofline_seconds(w, sw::platforms::sw_mpe);
    flops += pc.weight * static_cast<double>(ath.totals.total_flops());
  }
  // The MPE reaches memory through the same shared controller, so the
  // analytic roofline of the original port degrades by the measured
  // curve too (all four groups' MPEs run the model concurrently).
  mpe_s *= m.contention_slowdown;
  const double inv = 1.0 / nelem;
  m.cost[version_index(Version::kOriginal)] = {mpe_s * inv, flops * inv};
  m.cost[version_index(Version::kOpenAcc)] = {acc_s * inv, flops * inv};
  m.cost[version_index(Version::kAthread)] = {ath_s * inv, flops * inv};

  // Normalize sustained PFlops once at a documented anchor (the paper's
  // ne1024 / 8192-process measurement of 0.18 PFlops) so absolute rates
  // are comparable; every curve *shape* comes from the model itself.
  {
    const long long anchor_procs = 8192;
    const long long anchor_nelem = 6LL * 1024 * 1024;
    const double local_a =
        static_cast<double>(anchor_nelem) / anchor_procs;
    const ElementCost& ca = m.cost[version_index(Version::kAthread)];
    const double t = local_a * ca.seconds;  // compute dominated
    const double raw_pflops =
        static_cast<double>(anchor_nelem) * ca.flops / t / 1e15;
    m.pflops_scale = 0.18 / raw_pflops;
  }
  return m;
}

double MachineModel::halo_bytes(long long local) const {
  // The rows a rank sends for a compact patch of `local` elements: each
  // boundary element sends its own row at each node it shares, 4 rows per
  // element edge over a perimeter of ~ 4 sqrt(local) edges, plus the
  // corners; x levels x 8 bytes.
  const double rows = 4.0 * std::sqrt(static_cast<double>(local)) * 4.0 + 4.0;
  return rows * nlev * 8.0;
}

double MachineModel::exchanges_per_step() const {
  // 3 RK stages + 3 tracer stages + 2 hyperviscosity DSS.
  return 8.0;
}

MachineModel::StepCost MachineModel::dycore_step(int ne, long long nprocs,
                                                 Version v,
                                                 bool overlap) const {
  StepCost out;
  const long long nelem = 6LL * ne * ne;
  const double local =
      static_cast<double>(nelem) / static_cast<double>(nprocs);
  const ElementCost& c = cost[version_index(v)];
  out.compute_s = local * c.seconds;

  // Fields carried per exchange: RK stages move u (3 Cartesian) + T + dp,
  // tracer stages move qsize tracers, hyperviscosity moves 4; average.
  const double fields = (3.0 * 5.0 + 3.0 * qsize + 2.0 * 4.0) /
                        exchanges_per_step();
  const double bytes_per_neighbor =
      fields * halo_bytes(static_cast<long long>(std::ceil(local))) / 8.0;
  const double remote_frac = nprocs > 1024 ? 0.3 : 0.1;
  double comm = exchanges_per_step() *
                network.halo_exchange_seconds(8, static_cast<std::size_t>(
                                                     bytes_per_neighbor),
                                              remote_frac);
  if (overlap) {
    // Section 7.6: interior elements compute while messages fly. The
    // hideable part is bounded by the interior compute time; message
    // launch latency can never be hidden.
    const double interior_frac =
        std::max(0.0, 1.0 - 4.0 / std::sqrt(std::max(local, 1.0)));
    const double alpha_floor = exchanges_per_step() *
                               (remote_frac * network.params().alpha_inter_super_s +
                                (1.0 - remote_frac) *
                                    network.params().alpha_intra_super_s);
    comm = std::max(comm - out.compute_s * interior_frac, alpha_floor);
  }
  out.comm_s = comm;
  out.total_s = out.compute_s + out.comm_s;

  out.pflops = static_cast<double>(nelem) * c.flops / out.total_s / 1e15 *
               pflops_scale;
  return out;
}

namespace {

/// Amdahl factor of a port: the unaccelerated fraction plus the kernel
/// fraction divided by the measured aggregate kernel speedup over MPE.
double amdahl(const MachineModel& m, Version v) {
  const double speedup =
      m.cost[0].seconds / m.cost[static_cast<int>(v)].seconds;
  return kSerialFraction + (1.0 - kSerialFraction) / speedup;
}

/// Whole-CAM per-step cost model t = F + local * c * amdahl(v), with the
/// two parameters (F, c) solved from the paper's own Figure 6 anchors:
///   ne30  / 5,400 procs / Athread -> 21.5 SYPD (t_step = 38.3 ms)
///   ne120 / 28,800 procs / OpenACC -> 3.4 SYPD (t_step = 60.4 ms)
/// Every other Figure 6 point is then a prediction of the model.
struct WholeCam {
  double fixed_s;
  double c_base;
};

WholeCam whole_cam_calibration(const MachineModel& m) {
  auto t_step_target = [](int ne, double target_sypd) {
    const double dt = MachineModel::dyn_dt_seconds(ne);
    const double steps_per_year = 365.0 * 86400.0 / dt;
    return 86400.0 / target_sypd / steps_per_year;
  };
  const double t30 = t_step_target(30, 21.5);     // local = 1 element
  const double t120 = t_step_target(120, 3.4);    // local = 3 elements
  const double a_ath = amdahl(m, Version::kAthread);
  const double a_acc = amdahl(m, Version::kOpenAcc);
  // t30 = F + 1 * c * a_ath ; t120 = F + 3 * c * a_acc.
  const double c = (t120 - t30) / (3.0 * a_acc - a_ath);
  const double f = t30 - c * a_ath;
  return {f, c};
}

}  // namespace

double MachineModel::sypd(int ne, long long nprocs, Version v,
                          bool overlap) const {
  const WholeCam wc = whole_cam_calibration(*this);
  const long long nelem = 6LL * ne * ne;
  const double local =
      static_cast<double>(nelem) / static_cast<double>(nprocs);
  const auto dyn = dycore_step(ne, nprocs, v, overlap);
  const double t_step =
      wc.fixed_s + local * wc.c_base * amdahl(*this, v) + dyn.comm_s;
  const double dt = dyn_dt_seconds(ne);
  const double wall_per_year = 365.0 * 86400.0 / dt * t_step;
  return 86400.0 / wall_per_year;
}

double MachineModel::parallel_efficiency(int ne, long long base_procs,
                                         long long nprocs, Version v) const {
  const double t0 = dycore_step(ne, base_procs, v).total_s;
  const double t1 = dycore_step(ne, nprocs, v).total_s;
  return (t0 * static_cast<double>(base_procs)) /
         (t1 * static_cast<double>(nprocs));
}

}  // namespace perf
