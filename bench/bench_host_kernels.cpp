// Host dycore kernel bench: the vectorized/arena rewrite (homme::*) vs
// the frozen scalar reference path (homme::ref::*, per-call heap
// temporaries and all) on identical states.
//
// Seven rows, matching the shapes the rewrite targets:
//   column_scans          pressure / geopotential / omega vertical scans
//   compute_and_apply_rhs element_rhs + state update + DSS (Table 1's
//                         biggest host kernel)
//   euler_step            SSP-RK3 tracer advection: three stages of
//                         flux divergence, stage update, DSS and limiter
//   vertical_remap        cumulative-mass remap of the full state
//   tile_operators        deriv_ref, divergence_sphere, vorticity_sphere
//                         and laplace_sphere_wk on every level tile (the
//                         operators rhs, euler and hypervis call)
//   dss                   whole-mesh DSS of one scalar field (the
//                         transposed block body)
//   dss_vector            whole-mesh DSS of the wind (rotations folded
//                         into the block body)
//
// Each row reports both wall times, the speedup, achieved GFLOP/s of the
// vectorized path (analytic flop counts of the scalar op sequence) and
// main-array bytes touched per point — the arithmetic-intensity numbers
// DESIGN.md section 11 quotes.
//
// Flags (extracted before google-benchmark sees argv):
//   --json <path>  per-kernel numbers as machine-readable JSON
//   --small        CI smoke size (ne=2, nlev=32)
//   --ne/--steps   override mesh resolution / timing repetitions

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "homme/driver.hpp"
#include "homme/dss.hpp"
#include "homme/euler.hpp"
#include "homme/exchange.hpp"
#include "homme/ops.hpp"
#include "homme/ref_kernels.hpp"
#include "homme/remap.hpp"
#include "homme/rhs.hpp"
#include "homme/vpack.hpp"
#include "obs/report.hpp"
#include "scenario/registry.hpp"

namespace {

using homme::Dims;
using homme::fidx;
using mesh::kNpp;

int g_ne = 4;
int g_nlev = 64;
int g_steps = 20;

/// The vector ISA this build targets, from the compiler's predefined
/// macros: a wall time means nothing across machines without it.
const char* vector_isa() {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE2__)
  return "sse2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "other";
#endif
}

struct Row {
  std::string name;
  double scalar_s = 0.0;      ///< per invocation, reference path
  double vector_s = 0.0;      ///< per invocation, rewritten path
  double flops_per_point = 0.0;
  double bytes_per_point = 0.0;
  double max_rel_err = 0.0;   ///< rewrite vs reference on identical input
  std::size_t points = 0;     ///< nelem * nlev * kNpp
  double speedup() const { return scalar_s / vector_s; }
  double gflops() const {
    return flops_per_point * static_cast<double>(points) / vector_s / 1e9;
  }
};

template <class F>
double time_loop(int iters, F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count() / iters;
}

double max_rel_diff(std::span<const double> a, std::span<const double> b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({std::abs(a[i]), std::abs(b[i]), 1e-300});
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

double max_rel_diff_state(const homme::State& a, const homme::State& b,
                          const Dims& d) {
  double worst = 0.0;
  for (std::size_t e = 0; e < a.size(); ++e) {
    worst = std::max(worst, max_rel_diff(a[e].u1, b[e].u1));
    worst = std::max(worst, max_rel_diff(a[e].u2, b[e].u2));
    worst = std::max(worst, max_rel_diff(a[e].T, b[e].T));
    worst = std::max(worst, max_rel_diff(a[e].dp, b[e].dp));
    for (int q = 0; q < d.qsize; ++q) {
      worst = std::max(worst, max_rel_diff(a[e].q(q, d), b[e].q(q, d)));
    }
  }
  return worst;
}

std::vector<Row> run_rows() {
  auto m = mesh::CubedSphere::build(g_ne, mesh::kEarthRadius);
  Dims d;
  d.nlev = g_nlev;
  d.qsize = 2;
  d.moist = true;
  const std::size_t fs = d.field_size();
  const std::size_t points = static_cast<std::size_t>(m.nelem()) * fs;
  // The workset IC comes from the registry: solid-body rotation at the
  // "tracer-advection" scenario's u0, tracers filled in (d.qsize = 2).
  auto s = scenario::initial_state(scenario::get("tracer-advection"), m, d);
  const double dt = homme::Dycore::stable_dt(m);

  std::vector<Row> rows;

  {
    // -- column scans: pressure down, geopotential up, omega down --------
    Row r;
    r.name = "column_scans";
    r.points = points;
    // ~3 (pressure) + 7 (geopotential) + 4 (omega) flops per point.
    r.flops_per_point = 14.0;
    // Reads dp, T, divdp; writes p_mid, phi_mid, omega. 6 doubles/point.
    r.bytes_per_point = 48.0;
    std::vector<double> p_ref(fs), phi_ref(fs), om_ref(fs);
    std::vector<double> p_new(fs), phi_new(fs), om_new(fs);
    const auto& es = s[0];
    auto scans_ref = [&] {
      for (int e = 0; e < m.nelem(); ++e) {
        const auto& el = s[static_cast<std::size_t>(e)];
        homme::ref::column_pressure(d.nlev, el.dp.data(), p_ref.data());
        homme::ref::column_geopotential(d.nlev, el.T.data(), el.dp.data(),
                                        p_ref.data(), el.phis.data(),
                                        phi_ref.data());
        homme::ref::column_omega(d.nlev, el.dp.data(), om_ref.data());
      }
    };
    auto scans_new = [&] {
      for (int e = 0; e < m.nelem(); ++e) {
        const auto& el = s[static_cast<std::size_t>(e)];
        homme::column_pressure(d.nlev, el.dp.data(), p_new.data());
        homme::column_geopotential(d.nlev, el.T.data(), el.dp.data(),
                                   p_new.data(), el.phis.data(),
                                   phi_new.data());
        homme::column_omega(d.nlev, el.dp.data(), om_new.data());
      }
    };
    homme::ref::column_pressure(d.nlev, es.dp.data(), p_ref.data());
    homme::ref::column_geopotential(d.nlev, es.T.data(), es.dp.data(),
                                    p_ref.data(), es.phis.data(),
                                    phi_ref.data());
    homme::ref::column_omega(d.nlev, es.dp.data(), om_ref.data());
    homme::column_pressure(d.nlev, es.dp.data(), p_new.data());
    homme::column_geopotential(d.nlev, es.T.data(), es.dp.data(),
                               p_new.data(), es.phis.data(), phi_new.data());
    homme::column_omega(d.nlev, es.dp.data(), om_new.data());
    r.max_rel_err = std::max({max_rel_diff(p_ref, p_new),
                              max_rel_diff(phi_ref, phi_new),
                              max_rel_diff(om_ref, om_new)});
    r.scalar_s = time_loop(g_steps, scans_ref);
    r.vector_s = time_loop(g_steps, scans_new);
    rows.push_back(r);
  }

  {
    // -- compute_and_apply_rhs (element_rhs + update + DSS) --------------
    Row r;
    r.name = "compute_and_apply_rhs";
    r.points = points;
    // Analytic count of the scalar op sequence per point per level:
    // vorticity ~20, energy/absvort ~12, three gradients ~54, coriolis
    // ~8, flux+divergence ~22, tendencies ~19, scans + omega corr ~20.
    r.flops_per_point = 155.0;
    // Reads u1,u2,T,dp (+q for Tv); writes 4 tendencies + 4 updated
    // fields; scratch p/phi/divdp/omega round trips: ~17 doubles/point.
    r.bytes_per_point = 136.0;
    homme::State out_ref(s.size(), homme::ElementState(d));
    homme::State out_new(s.size(), homme::ElementState(d));
    homme::ref::compute_and_apply_rhs(m, d, s, s, dt, out_ref);
    homme::compute_and_apply_rhs(homme::Exchange(m), d, s, s, dt, out_new);
    r.max_rel_err = max_rel_diff_state(out_ref, out_new, d);
    r.scalar_s = time_loop(g_steps, [&] {
      homme::ref::compute_and_apply_rhs(m, d, s, s, dt, out_ref);
    });
    r.vector_s = time_loop(g_steps, [&] {
      homme::compute_and_apply_rhs(homme::Exchange(m), d, s, s, dt, out_new);
    });
    rows.push_back(r);
  }

  {
    // -- euler_step: SSP-RK3 tracer advection ----------------------------
    Row r;
    r.name = "euler_step";
    r.points = points;
    // Per tracer and stage: flux products 2, divergence 20, negation 1,
    // stage update 5, DSS ~3, limiter ~4 -- times 3 stages and qsize.
    r.flops_per_point = 3.0 * d.qsize * 35.0;
    // Per tracer and stage: u1, u2, q0, qs read, rhs written and read, qs
    // written, DSS and limiter read/write qs twice: ~11 doubles.
    r.bytes_per_point = 3.0 * d.qsize * 11.0 * 8.0;
    homme::State a = s, b = s;
    homme::ref::euler_step(m, d, a, dt);
    homme::euler_step(homme::Exchange(m), d, b, dt);
    r.max_rel_err = max_rel_diff_state(a, b, d);
    // Advecting an advected state again is the same work, so the timing
    // loops reuse one working copy each.
    r.scalar_s =
        time_loop(g_steps, [&] { homme::ref::euler_step(m, d, a, dt); });
    r.vector_s = time_loop(
        g_steps, [&] { homme::euler_step(homme::Exchange(m), d, b, dt); });
    rows.push_back(r);
  }

  {
    // -- vertical remap of the full state --------------------------------
    Row r;
    r.name = "vertical_remap";
    r.points = points;
    // Cumulative-mass scans, monotone slopes and one Hermite eval (with
    // binary search) per point for u1,u2,T and each tracer: ~60/pt.
    r.flops_per_point = 60.0;
    // u1,u2,T,dp + qsize tracers read and written: 2*(4+qsize)*8.
    r.bytes_per_point = 2.0 * (4.0 + d.qsize) * 8.0;
    homme::State a = s, b = s;
    homme::ref::vertical_remap_local(d, a);
    homme::vertical_remap_local(d, b);
    r.max_rel_err = max_rel_diff_state(a, b, d);
    // Remapping an already-remapped state is a valid (near-identity)
    // remap, so the timing loops reuse one working copy.
    r.scalar_s =
        time_loop(g_steps, [&] { homme::ref::vertical_remap_local(d, a); });
    r.vector_s =
        time_loop(g_steps, [&] { homme::vertical_remap_local(d, b); });
    rows.push_back(r);
  }

  {
    // -- spherical tile operators on every level tile ---------------------
    Row r;
    r.name = "tile_operators";
    r.points = points;
    // The vectorized op sequence per point: deriv_ref 16, divergence 20,
    // vorticity 24, laplace_sphere_wk 43 (its w products are tabled).
    r.flops_per_point = 103.0;
    // deriv_ref reads 1 and writes 2 doubles, divergence 3 + 1, vorticity
    // 6 + 1 (metric), laplace_sphere_wk 5 + 1: 20 doubles/point.
    r.bytes_per_point = 160.0;
    struct Ops {
      void (*deriv)(const double*, double*, double*);
      void (*div)(const mesh::ElementGeom&, const double*, const double*,
                  double*);
      void (*vort)(const mesh::ElementGeom&, const double*, const double*,
                   double*);
      void (*lap)(const mesh::ElementGeom&, const double*, double*);
    };
    const Ops ref_ops{homme::ref::deriv_ref, homme::ref::divergence_sphere,
                      homme::ref::vorticity_sphere,
                      homme::ref::laplace_sphere_wk};
    // homme's metric operators take a MetricView; these thunks make the
    // ElementGeom conversion every host call site makes.
    const Ops new_ops{
        homme::deriv_ref,
        [](const mesh::ElementGeom& g, const double* u1, const double* u2,
           double* div) { homme::divergence_sphere(g, u1, u2, div); },
        [](const mesh::ElementGeom& g, const double* u1, const double* u2,
           double* vort) { homme::vorticity_sphere(g, u1, u2, vort); },
        [](const mesh::ElementGeom& g, const double* s, double* lap) {
          homme::laplace_sphere_wk(g, s, lap);
        }};
    // Five output tiles per input tile: d1, d2, div, vort, lap.
    std::vector<double> out_ref(5 * points), out_new(5 * points);
    auto apply = [&](const Ops& ops, std::vector<double>& out) {
      double* o = out.data();
      for (int e = 0; e < m.nelem(); ++e) {
        const auto& g = m.geom(e);
        const auto& el = s[static_cast<std::size_t>(e)];
        for (int lev = 0; lev < d.nlev; ++lev, o += 5 * kNpp) {
          const double* u1 = el.u1.data() + fidx(lev, 0);
          const double* u2 = el.u2.data() + fidx(lev, 0);
          const double* T = el.T.data() + fidx(lev, 0);
          ops.deriv(T, o, o + kNpp);
          ops.div(g, u1, u2, o + 2 * kNpp);
          ops.vort(g, u1, u2, o + 3 * kNpp);
          ops.lap(g, T, o + 4 * kNpp);
        }
      }
    };
    apply(ref_ops, out_ref);
    apply(new_ops, out_new);
    r.max_rel_err = max_rel_diff(out_ref, out_new);
    r.scalar_s = time_loop(g_steps, [&] { apply(ref_ops, out_ref); });
    r.vector_s = time_loop(g_steps, [&] { apply(new_ops, out_new); });
    rows.push_back(r);
  }

  {
    // -- DSS: one scalar field, then the wind ------------------------------
    // A DSS is a projection, so re-assembling an assembled field is the
    // same work; each path keeps its own working copies. One call is short,
    // so these rows time ten calls per repetition.
    using homme::ElementState;
    const int iters = 10 * g_steps;
    homme::State a = s, b = s;
    auto Ta = homme::field_ptrs(a, &ElementState::T);
    auto Tb = homme::field_ptrs(b, &ElementState::T);
    auto u1a = homme::field_ptrs(a, &ElementState::u1);
    auto u2a = homme::field_ptrs(a, &ElementState::u2);
    auto u1b = homme::field_ptrs(b, &ElementState::u1);
    auto u2b = homme::field_ptrs(b, &ElementState::u2);

    Row r;
    r.name = "dss";
    r.points = points;
    // A mass product and an add per point in, an rmass product out.
    r.flops_per_point = 3.0;
    // The field read and written once; its node's accumulator entry
    // read-modified-written, then read: 5 doubles/point.
    r.bytes_per_point = 40.0;
    homme::ref::dss_levels(m, Ta, d.nlev);
    homme::dss_levels(m, Tb, d.nlev);
    for (std::size_t e = 0; e < s.size(); ++e) {
      r.max_rel_err = std::max(r.max_rel_err, max_rel_diff(a[e].T, b[e].T));
    }
    r.scalar_s =
        time_loop(iters, [&] { homme::ref::dss_levels(m, Ta, d.nlev); });
    r.vector_s = time_loop(iters, [&] { homme::dss_levels(m, Tb, d.nlev); });
    rows.push_back(r);

    Row v;
    v.name = "dss_vector";
    v.points = points;
    // Rotation to x, y, z (9), three scalar DSS (9), rotation back (10).
    v.flops_per_point = 28.0;
    // u1, u2 read and written; three accumulator entries
    // read-modified-written, then read: 13 doubles/point.
    v.bytes_per_point = 104.0;
    homme::ref::dss_vector_levels(m, u1a, u2a, d.nlev);
    homme::dss_vector_levels(m, u1b, u2b, d.nlev);
    for (std::size_t e = 0; e < s.size(); ++e) {
      v.max_rel_err = std::max({v.max_rel_err, max_rel_diff(a[e].u1, b[e].u1),
                                max_rel_diff(a[e].u2, b[e].u2)});
    }
    v.scalar_s = time_loop(iters, [&] {
      homme::ref::dss_vector_levels(m, u1a, u2a, d.nlev);
    });
    v.vector_s = time_loop(
        iters, [&] { homme::dss_vector_levels(m, u1b, u2b, d.nlev); });
    rows.push_back(v);
  }

  return rows;
}

const std::vector<Row>& rows() {
  static const auto r = run_rows();
  return r;
}

void print_table() {
  std::printf(
      "\n=== Host kernels: scalar reference vs vectorized/arena path "
      "(ne=%d, nlev=%d, vpack width %d, %s) ===\n",
      g_ne, g_nlev, homme::kVpackWidth, vector_isa());
  std::printf("%-24s %12s %12s %8s %9s %8s %10s\n", "kernel", "scalar_s",
              "vector_s", "speedup", "GFLOP/s", "B/pt", "max_rel");
  for (const auto& r : rows()) {
    std::printf("%-24s %12.3e %12.3e %7.2fx %9.2f %8.0f %10.2e\n",
                r.name.c_str(), r.scalar_s, r.vector_s, r.speedup(),
                r.gflops(), r.bytes_per_point, r.max_rel_err);
  }
  std::printf("\n");
}

bool write_json(const std::string& path) {
  obs::Report rep("host_kernels");
  rep.config()
      .set("ne", g_ne)
      .set("nlev", g_nlev)
      .set("qsize", 2)
      .set("steps", g_steps)
      .set("vpack_width", homme::kVpackWidth)
      .set("isa", vector_isa());
  obs::Json& kernels = rep.root().arr("kernels");
  for (const auto& r : rows()) {
    kernels.push()
        .set("name", r.name)
        .set("scalar_s", r.scalar_s)
        .set("vector_s", r.vector_s)
        .set("speedup", r.speedup())
        .set("gflops", r.gflops())
        .set("flops_per_point", r.flops_per_point)
        .set("bytes_per_point", r.bytes_per_point)
        .set("max_rel_err", r.max_rel_err)
        .set("points", static_cast<std::uint64_t>(r.points));
  }
  return rep.write(path);
}

void register_benchmarks() {
  for (const auto& r : rows()) {
    for (auto [path, secs] : {std::pair{"scalar", r.scalar_s},
                              std::pair{"vector", r.vector_s}}) {
      auto* b = benchmark::RegisterBenchmark(
          (r.name + "/" + path).c_str(), [secs](benchmark::State& state) {
            for (auto _ : state) {
              state.SetIterationTime(secs);
            }
          });
      b->UseManualTime()->Iterations(1);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::BenchOptions::parse(argc, argv);
  if (opts.small) {
    g_ne = 2;
    g_nlev = 32;
    g_steps = 5;
  }
  g_ne = opts.ne_or(g_ne);
  g_steps = opts.steps_or(g_steps);
  print_table();
  if (!opts.json_path.empty() && !write_json(opts.json_path)) return 1;
  register_benchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
