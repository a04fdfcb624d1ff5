#include "accel/table1.hpp"

#include <cmath>
#include <stdexcept>

#include "accel/remap_acc.hpp"
#include "accel/rhs_acc.hpp"
#include "homme/euler.hpp"
#include "homme/ops.hpp"
#include "homme/remap.hpp"
#include "homme/rhs.hpp"

namespace accel {

namespace {

double max_rel_diff(std::span<const double> a, std::span<const double> b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({std::abs(a[i]), std::abs(b[i]), 1e-30});
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

/// Throw unless the launch spans between \p before and \p after carry
/// exactly \p stats' counters.
void check_counters(const std::string& kernel, const char* platform,
                    const obs::Summary& before, const obs::Summary& after,
                    const sw::KernelStats& stats) {
  const sw::CounterAttachment want = sw::counter_attachment(stats.totals);
  for (const obs::Counter& c : obs::CounterList(want)) {
    const std::uint64_t got =
        obs::phase_counter_delta(before, after, "launch", c.name);
    if (got != c.value) {
      throw std::logic_error(
          "table1: obs counter path drifts from KernelStats for " + kernel +
          " " + platform + " " + c.name + " (obs " + std::to_string(got) +
          " vs stats " + std::to_string(c.value) + ")");
    }
  }
}

}  // namespace

void rhs_host(const mesh::CubedSphere& m, const homme::Dims& d,
              homme::State& s) {
  const std::size_t fs = d.field_size();
  std::vector<double> t(4 * fs);
  const homme::TendView tend{t.data(), t.data() + fs, t.data() + 2 * fs,
                             t.data() + 3 * fs};
  for (std::size_t e = 0; e < s.size(); ++e) {
    homme::ElementState& es = s[e];
    homme::element_rhs(m.geom(static_cast<int>(e) % m.nelem()), d, es, tend);
    const auto u1 = es.u1.mutable_span();
    const auto u2 = es.u2.mutable_span();
    const auto T = es.T.mutable_span();
    const auto dp = es.dp.mutable_span();
    for (std::size_t f = 0; f < fs; ++f) {
      u1[f] += kPortDt * tend.u1[f];
      u2[f] += kPortDt * tend.u2[f];
      T[f] += kPortDt * tend.T[f];
      dp[f] += kPortDt * tend.dp[f];
    }
  }
}

void euler_host(const mesh::CubedSphere& m, const homme::Dims& d,
                homme::State& s) {
  std::vector<double> r(d.field_size());
  for (std::size_t e = 0; e < s.size(); ++e) {
    homme::ElementState& es = s[e];
    for (int q = 0; q < d.qsize; ++q) {
      homme::element_tracer_rhs(m.geom(static_cast<int>(e) % m.nelem()), d,
                                es, es.q(q, d), r);
      const auto qdp = es.q_mut(q, d);
      for (std::size_t f = 0; f < r.size(); ++f) qdp[f] += kPortDt * r[f];
    }
  }
}

void hypervis_host(const mesh::CubedSphere& m, const homme::Dims& d,
                   homme::State& s, HvKernel which) {
  std::vector<homme::Chunk homme::ElementState::*> fields = {
      &homme::ElementState::u1, &homme::ElementState::u2,
      &homme::ElementState::T};
  if (which == HvKernel::kBiharmDp3d) fields = {&homme::ElementState::dp};
  for (const auto field : fields) {
    for (std::size_t e = 0; e < s.size(); ++e) {
      const mesh::ElementGeom& g = m.geom(static_cast<int>(e) % m.nelem());
      const std::span<double> fld = (s[e].*field).mutable_span();
      for (int lev = 0; lev < d.nlev; ++lev) {
        double* x = fld.data() + homme::fidx(lev, 0);
        double lap[kNpp];
        homme::laplace_sphere_wk(g, x, lap);
        if (which == HvKernel::kDp1) {
          for (int k = 0; k < kNpp; ++k) x[k] += kPortNuDt * lap[k];
          continue;
        }
        double lap2[kNpp];
        homme::laplace_sphere_wk(g, lap, lap2);
        for (int k = 0; k < kNpp; ++k) x[k] -= kPortNuDt * lap2[k];
      }
    }
  }
}

double state_max_rel_diff(const homme::State& a, const homme::State& b) {
  double worst = 0.0;
  for (std::size_t e = 0; e < a.size(); ++e) {
    for (const auto f : kPrognosticChunks) {
      worst = std::max(worst, max_rel_diff((a[e].*f).span(), (b[e].*f).span()));
    }
  }
  return worst;
}

std::vector<Table1Kernel> table1_kernels(const mesh::CubedSphere& m,
                                         const homme::Dims& d, int nelem,
                                         const PackedGeometry& geo,
                                         const EulerDerived& derived) {
  // Paper Table 1 timings (seconds over 6,144-process ne256 runs). The
  // Athread rhs's register scans reassociate the column sums: 1.2e-9 at
  // the paper's 128 levels.
  std::vector<Table1Kernel> ks;
  ks.push_back({"compute_and_apply_rhs", 12.69, 92.13, 75.11, 1e-8,
                rhs_work(d, nelem),
                [&m, d](homme::State& s) { rhs_host(m, d, s); },
                [&geo, d](sw::CoreGroup& cg, homme::State& s) {
                  return rhs_openacc(cg, d, s, geo);
                },
                [&geo, d](sw::CoreGroup& cg, homme::State& s) {
                  return rhs_athread(cg, d, s, geo);
                }});
  ks.push_back({"euler_step", 15.88, 175.73, 10.18, 0.0,
                euler_step_work(d, nelem),
                [&m, d](homme::State& s) { euler_host(m, d, s); },
                [&geo, &derived, d](sw::CoreGroup& cg, homme::State& s) {
                  return euler_openacc(cg, d, s, geo, derived);
                },
                [&geo, &derived, d](sw::CoreGroup& cg, homme::State& s) {
                  return euler_athread(cg, d, s, geo, derived);
                }});
  ks.push_back({"vertical_remap", 11.38, 39.99, 16.17, 0.0,
                remap_work(d, nelem),
                [d](homme::State& s) { homme::vertical_remap_local(d, s); },
                [d](sw::CoreGroup& cg, homme::State& s) {
                  return remap_openacc(cg, d, s);
                },
                [d](sw::CoreGroup& cg, homme::State& s) {
                  return remap_athread(cg, d, s);
                }});
  const auto add_hv = [&](const char* name, double pi, double pm, double pa,
                          HvKernel which) {
    sw::WorkEstimate w =
        laplace_work(d, nelem, which == HvKernel::kDp1 ? 1 : 2);
    if (which != HvKernel::kBiharmDp3d) w.bytes *= 3;  // u1, u2, T
    ks.push_back({name, pi, pm, pa, 0.0, w,
                  [&m, d, which](homme::State& s) {
                    hypervis_host(m, d, s, which);
                  },
                  [&geo, d, which](sw::CoreGroup& cg, homme::State& s) {
                    return hypervis_openacc(cg, d, s, geo, which);
                  },
                  [&geo, d, which](sw::CoreGroup& cg, homme::State& s) {
                    return hypervis_athread(cg, d, s, geo, which);
                  }});
  };
  add_hv("hypervis_dp1", 4.95, 12.71, 3.13, HvKernel::kDp1);
  add_hv("hypervis_dp2", 3.81, 9.05, 1.32, HvKernel::kDp2);
  add_hv("biharmonic_dp3d", 9.35, 36.18, 4.43, HvKernel::kBiharmDp3d);
  return ks;
}

std::vector<Table1Row> run_table1(const Table1Config& cfg,
                                  obs::Tracer* tracer) {
  homme::Dims d;
  d.nlev = cfg.nlev;
  d.qsize = cfg.qsize;
  auto mesh = mesh::CubedSphere::build(cfg.mesh_ne, mesh::kEarthRadius);
  const homme::State base = synthetic_state(d, cfg.nelem);
  const PackedGeometry geo = PackedGeometry::pack(mesh, cfg.nelem);
  const EulerDerived derived = EulerDerived::make(d, cfg.nelem);

  // The counter columns flow through the obs:: summary: every launch span
  // carries its CpeCounters attachment, and per-platform values are
  // isolated as summary deltas around each run. When the caller supplies
  // an enabled tracer the same events also become the exported timeline;
  // otherwise a throwaway internal tracer feeds the counter path.
  obs::Tracer internal(obs::ClockDomain::kVirtual);
  internal.enable();
  obs::Tracer* tr =
      (tracer != nullptr && tracer->enabled()) ? tracer : &internal;

  sw::CoreGroup cg;
  cg.set_tracer(tr, sw::CoreGroup::kDefaultTracePid, "table1/cg");
  std::vector<Table1Row> rows;
  for (const Table1Kernel& k :
       table1_kernels(mesh, d, cfg.nelem, geo, derived)) {
    homme::State ref_s = base;
    k.ref(ref_s);

    const obs::Summary sum0 = tr->summary();
    homme::State acc_s = base;
    const auto acc_stats = k.acc(cg, acc_s);
    const obs::Summary sum_acc = tr->summary();
    homme::State ath_s = base;
    const auto ath_stats = k.athread(cg, ath_s);
    const obs::Summary sum_ath = tr->summary();

    const double acc_err = state_max_rel_diff(ref_s, acc_s);
    const double ath_err = state_max_rel_diff(ref_s, ath_s);
    if (acc_err > 0.0 || ath_err > k.athread_tol) {
      throw std::runtime_error("table1: port diverges from reference for " +
                               k.name + " (acc " + std::to_string(acc_err) +
                               ", athread " + std::to_string(ath_err) + ")");
    }
    // Any double counting or drift between the summary and KernelStats is
    // a logic error, not a tolerance.
    check_counters(k.name, "openacc", sum0, sum_acc, acc_stats);
    check_counters(k.name, "athread", sum_acc, sum_ath, ath_stats);

    Table1Row row;
    row.name = k.name;
    row.paper_intel = k.paper_intel;
    row.paper_mpe = k.paper_mpe;
    row.paper_acc = k.paper_acc;
    row.flops = ath_stats.totals.total_flops();
    row.acc_dma_bytes = acc_stats.totals.total_dma_bytes();
    row.athread_dma_bytes = ath_stats.totals.total_dma_bytes();
    row.athread_dma_reused = ath_stats.totals.dma_reused_bytes;
    row.athread_dma_cold = ath_stats.totals.dma_cold_bytes;
    row.athread_fallbacks = ath_stats.totals.host_fallbacks;
    row.acc_s = acc_stats.seconds;
    row.athread_s = ath_stats.seconds;

    sw::WorkEstimate w = k.work;
    w.flops = row.flops;
    row.intel_s = sw::roofline_seconds(w, sw::platforms::intel_core);
    row.mpe_s = sw::roofline_seconds(w, sw::platforms::sw_mpe);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace accel
