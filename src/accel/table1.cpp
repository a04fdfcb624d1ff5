#include "accel/table1.hpp"

#include <cmath>
#include <functional>
#include <stdexcept>

#include "accel/euler_acc.hpp"
#include "accel/hypervis_acc.hpp"
#include "accel/remap_acc.hpp"
#include "accel/rhs_acc.hpp"
#include "homme/euler.hpp"
#include "homme/ops.hpp"
#include "homme/rhs.hpp"
#include "sw/cost_model.hpp"

namespace accel {

namespace {

double max_rel_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({std::abs(a[i]), std::abs(b[i]), 1e-30});
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

homme::Dims dims_of(const PackedElems& p) {
  homme::Dims d;
  d.nlev = p.nlev;
  d.qsize = p.qsize;
  return d;
}

/// The homme::State of \p p's elements (prognostics and tracers).
homme::State unpack(const PackedElems& p, const homme::Dims& d) {
  homme::State s(static_cast<std::size_t>(p.nelem), homme::ElementState(d));
  p.to_state(s, 0);
  return s;
}

struct KernelSpec {
  std::string name;
  double paper_intel, paper_mpe, paper_acc;
  sw::WorkEstimate (*work)(const PackedElems&);
  std::function<void(PackedElems&)> ref;
  std::function<sw::KernelStats(sw::CoreGroup&, PackedElems&)> acc;
  std::function<sw::KernelStats(sw::CoreGroup&, PackedElems&)> athread;
};

}  // namespace

void rhs_host(const mesh::CubedSphere& m, PackedElems& p, double dt) {
  const homme::Dims d = dims_of(p);
  const homme::State s = unpack(p, d);
  const std::size_t fs = p.field_size();
  std::vector<double> t(4 * fs);
  const homme::TendView tend{t.data(), t.data() + fs, t.data() + 2 * fs,
                             t.data() + 3 * fs};
  for (int e = 0; e < p.nelem; ++e) {
    homme::element_rhs(m.geom(e % m.nelem()), d,
                       s[static_cast<std::size_t>(e)], tend);
    const std::size_t eo = p.elem_offset(e);
    for (std::size_t f = 0; f < fs; ++f) {
      p.u1[eo + f] += dt * tend.u1[f];
      p.u2[eo + f] += dt * tend.u2[f];
      p.T[eo + f] += dt * tend.T[f];
      p.dp[eo + f] += dt * tend.dp[f];
    }
  }
}

void euler_host(const mesh::CubedSphere& m, PackedElems& p, double dt) {
  const homme::Dims d = dims_of(p);
  const homme::State s = unpack(p, d);
  const std::size_t fs = p.field_size();
  std::vector<double> r(fs);
  for (int e = 0; e < p.nelem; ++e) {
    const homme::ElementState& es = s[static_cast<std::size_t>(e)];
    for (int q = 0; q < p.qsize; ++q) {
      homme::element_tracer_rhs(m.geom(e % m.nelem()), d, es, es.q(q, d), r);
      double* qdp = p.qdp.data() + p.qdp_offset(e, q);
      for (std::size_t f = 0; f < fs; ++f) qdp[f] += dt * r[f];
    }
  }
}

void hypervis_host(const mesh::CubedSphere& m, PackedElems& p,
                   HvKernel which, double nu_dt) {
  std::vector<std::vector<double>*> fields = {&p.u1, &p.u2, &p.T};
  if (which == HvKernel::kBiharmDp3d) fields = {&p.dp};
  for (std::vector<double>* fld : fields) {
    for (int e = 0; e < p.nelem; ++e) {
      const mesh::ElementGeom& g = m.geom(e % m.nelem());
      for (int lev = 0; lev < p.nlev; ++lev) {
        double* x = fld->data() + p.elem_offset(e) + homme::fidx(lev, 0);
        double lap[kNpp];
        homme::laplace_sphere_wk(g, x, lap);
        if (which == HvKernel::kDp1) {
          for (int k = 0; k < kNpp; ++k) x[k] += nu_dt * lap[k];
          continue;
        }
        double lap2[kNpp];
        homme::laplace_sphere_wk(g, lap, lap2);
        for (int k = 0; k < kNpp; ++k) x[k] -= nu_dt * lap2[k];
      }
    }
  }
}

double packed_max_rel_diff(const PackedElems& a, const PackedElems& b) {
  double worst = 0.0;
  worst = std::max(worst, max_rel_diff(a.u1, b.u1));
  worst = std::max(worst, max_rel_diff(a.u2, b.u2));
  worst = std::max(worst, max_rel_diff(a.T, b.T));
  worst = std::max(worst, max_rel_diff(a.dp, b.dp));
  worst = std::max(worst, max_rel_diff(a.qdp, b.qdp));
  return worst;
}

std::vector<Table1Row> run_table1(const Table1Config& cfg,
                                  obs::Tracer* tracer) {
  homme::Dims d;
  d.nlev = cfg.nlev;
  d.qsize = cfg.qsize;
  auto mesh = mesh::CubedSphere::build(cfg.mesh_ne, mesh::kEarthRadius);
  const PackedElems base = PackedElems::synthetic(mesh, d, cfg.nelem);

  const EulerAccConfig euler_cfg{};
  const EulerDerived derived = EulerDerived::make(base, euler_cfg.shared_extra);
  const RhsAccConfig rhs_cfg{};
  const HypervisAccConfig hv_cfg{};

  // Paper Table 1 timings (seconds over 6,144-process ne256 runs).
  std::vector<KernelSpec> specs;
  specs.push_back(
      {"compute_and_apply_rhs", 12.69, 92.13, 75.11, &rhs_work,
       [&](PackedElems& p) { rhs_host(mesh, p, rhs_cfg.dt); },
       [&](sw::CoreGroup& cg, PackedElems& p) {
         return rhs_openacc(cg, p, rhs_cfg);
       },
       [&](sw::CoreGroup& cg, PackedElems& p) {
         return rhs_athread(cg, p, rhs_cfg);
       }});
  specs.push_back(
      {"euler_step", 15.88, 175.73, 10.18, &euler_step_work,
       [&](PackedElems& p) { euler_host(mesh, p, euler_cfg.dt); },
       [&](sw::CoreGroup& cg, PackedElems& p) {
         return euler_openacc(cg, p, derived, euler_cfg);
       },
       [&](sw::CoreGroup& cg, PackedElems& p) {
         return euler_athread(cg, p, derived, euler_cfg);
       }});
  specs.push_back({"vertical_remap", 11.38, 39.99, 16.17, &remap_work,
                   [&](PackedElems& p) { remap_ref(p); },
                   [&](sw::CoreGroup& cg, PackedElems& p) {
                     return remap_openacc(cg, p);
                   },
                   [&](sw::CoreGroup& cg, PackedElems& p) {
                     return remap_athread(cg, p);
                   }});
  auto add_hv = [&](const std::string& name, double pi, double pm, double pa,
                    HvKernel which, int apps) {
    specs.push_back(
        {name, pi, pm, pa,
         nullptr,  // bytes handled below via laplace_work(apps)
         [&, which](PackedElems& p) {
           hypervis_host(mesh, p, which, hv_cfg.nu_dt);
         },
         [&, which](sw::CoreGroup& cg, PackedElems& p) {
           return hypervis_openacc(cg, p, which, hv_cfg);
         },
         [&, which](sw::CoreGroup& cg, PackedElems& p) {
           return hypervis_athread(cg, p, which, hv_cfg);
         }});
    (void)apps;
  };
  add_hv("hypervis_dp1", 4.95, 12.71, 3.13, HvKernel::kDp1, 1);
  add_hv("hypervis_dp2", 3.81, 9.05, 1.32, HvKernel::kDp2, 2);
  add_hv("biharmonic_dp3d", 9.35, 36.18, 4.43, HvKernel::kBiharmDp3d, 2);

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
  for (std::size_t si = 0; si < specs.size(); ++si) {
    auto& spec = specs[si];
    PackedElems ref_p = base;
    spec.ref(ref_p);

    const obs::Summary sum0 = tr->summary();
    PackedElems acc_p = base;
    const auto acc_stats = spec.acc(cg, acc_p);
    const obs::Summary sum_acc = tr->summary();
    PackedElems ath_p = base;
    const auto ath_stats = spec.athread(cg, ath_p);
    const obs::Summary sum_ath = tr->summary();

    const double acc_err = packed_max_rel_diff(ref_p, acc_p);
    const double ath_err = packed_max_rel_diff(ref_p, ath_p);
    // The OpenACC ports are bit-identical; the rhs Athread register scans
    // reassociate the 128-level sums, giving O(1e-9) relative drift.
    if (acc_err > 1e-7 || ath_err > 1e-7) {
      throw std::runtime_error("table1: port diverges from reference for " +
                               spec.name + " (acc " + std::to_string(acc_err) +
                               ", athread " + std::to_string(ath_err) + ")");
    }

    // Counter columns via the obs:: attachment path ("launch"-prefixed
    // phases), with an identity check against the KernelStats totals —
    // any double counting or drift between the two paths is a logic
    // error, not a tolerance.
    const auto launch_ctr = [](const obs::Summary& before,
                               const obs::Summary& after,
                               std::string_view key) {
      return obs::phase_counter_delta(before, after, "launch", key);
    };
    const auto check = [&spec](const char* what, std::uint64_t obs_v,
                               std::uint64_t stats_v) {
      if (obs_v != stats_v) {
        throw std::logic_error(
            "table1: obs counter path drifts from KernelStats for " +
            spec.name + " " + what + " (obs " + std::to_string(obs_v) +
            " vs stats " + std::to_string(stats_v) + ")");
      }
      return obs_v;
    };

    Table1Row row;
    row.name = spec.name;
    row.paper_intel = spec.paper_intel;
    row.paper_mpe = spec.paper_mpe;
    row.paper_acc = spec.paper_acc;
    row.flops =
        check("flops",
              launch_ctr(sum_acc, sum_ath, "scalar_flops") +
                  launch_ctr(sum_acc, sum_ath, "vector_flops"),
              ath_stats.totals.total_flops());
    row.acc_dma_bytes =
        check("acc_dma_bytes",
              launch_ctr(sum0, sum_acc, "dma_get_bytes") +
                  launch_ctr(sum0, sum_acc, "dma_put_bytes"),
              acc_stats.totals.total_dma_bytes());
    row.athread_dma_bytes =
        check("athread_dma_bytes",
              launch_ctr(sum_acc, sum_ath, "dma_get_bytes") +
                  launch_ctr(sum_acc, sum_ath, "dma_put_bytes"),
              ath_stats.totals.total_dma_bytes());
    row.athread_dma_reused =
        check("athread_dma_reused",
              launch_ctr(sum_acc, sum_ath, "dma_reused_bytes"),
              ath_stats.totals.dma_reused_bytes);
    row.athread_dma_cold =
        check("athread_dma_cold",
              launch_ctr(sum_acc, sum_ath, "dma_cold_bytes"),
              ath_stats.totals.dma_cold_bytes);
    row.athread_fallbacks =
        check("athread_fallbacks",
              launch_ctr(sum_acc, sum_ath, "host_fallbacks"),
              ath_stats.totals.host_fallbacks);
    row.acc_s = acc_stats.seconds;
    row.athread_s = ath_stats.seconds;

    sw::WorkEstimate w;
    if (spec.work != nullptr) {
      w = spec.work(base);
    } else if (spec.name == "hypervis_dp1") {
      w = laplace_work(base, 1);
      w.bytes *= 3;  // u1, u2, T
    } else if (spec.name == "hypervis_dp2") {
      w = laplace_work(base, 2);
      w.bytes *= 3;
    } else {
      w = laplace_work(base, 2);  // biharmonic_dp3d: dp only
    }
    w.flops = row.flops;
    row.intel_s = sw::roofline_seconds(w, sw::platforms::intel_core);
    row.mpe_s = sw::roofline_seconds(w, sw::platforms::sw_mpe);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace accel
