#include "accel/rhs_acc.hpp"

#include <cassert>
#include <cmath>
#include <vector>

#include "accel/pipeline.hpp"
#include "homme/dims.hpp"
#include "homme/ops.hpp"
#include "homme/state.hpp"
#include "sw/scan.hpp"
#include "sw/task.hpp"

namespace accel {

using homme::fidx;
using homme::kKappa;
using homme::kPtop;
using homme::kRgas;

namespace {

/// Per-level RHS arithmetic on LDM tiles, homme::element_rhs's level body
/// with dry T. geom points at the element's 23 packed tiles. Produces the
/// momentum/temperature tendencies and the mass-flux divergence of this
/// level.
void rhs_level_tile(const double* geom, const double* u1, const double* u2,
                    const double* T, const double* dp, const double* pm,
                    const double* phim, double* tu1, double* tu2, double* tT,
                    double* divdp, sw::Cpe* cpe, bool vec) {
  const homme::MetricView g(geom, kMetricTiles);
  const double* cor = geom + kCor * kNpp;

  double vort[kNpp], energy[kNpp];
  homme::vorticity_sphere(g, u1, u2, vort);
  charge(cpe, vec, kVorticityFlops);
  for (int k = 0; k < kNpp; ++k) {
    vort[k] += cor[k];
    const double ke = 0.5 * (g.g11[k] * u1[k] * u1[k] +
                             2.0 * g.g12[k] * u1[k] * u2[k] +
                             g.g22[k] * u2[k] * u2[k]);
    energy[k] = ke + phim[k];
  }
  charge(cpe, vec, kNpp * 10);

  double dE1[kNpp], dE2[kNpp], dp1[kNpp], dp2[kNpp], dT1[kNpp], dT2[kNpp];
  homme::deriv_ref(energy, dE1, dE2);
  charge(cpe, vec, kDerivFlops);
  homme::deriv_ref(pm, dp1, dp2);
  charge(cpe, vec, kDerivFlops);
  homme::deriv_ref(T, dT1, dT2);
  charge(cpe, vec, kDerivFlops);

  // Coriolis/vorticity cross product on the staged frame tiles.
  double c1[kNpp], c2[kNpp];
  homme::coriolis_vorticity_term(homme::FrameView(geom + kA1X * kNpp), vort,
                                 u1, u2, c1, c2);
  for (int k = 0; k < kNpp; ++k) {
    const double rtp = kRgas * T[k] / pm[k];
    const double gE1 = g.ginv11[k] * dE1[k] + g.ginv12[k] * dE2[k];
    const double gE2 = g.ginv12[k] * dE1[k] + g.ginv22[k] * dE2[k];
    const double gp1 = g.ginv11[k] * dp1[k] + g.ginv12[k] * dp2[k];
    const double gp2 = g.ginv12[k] * dp1[k] + g.ginv22[k] * dp2[k];
    tu1[k] = -c1[k] - gE1 - rtp * gp1;
    tu2[k] = -c2[k] - gE2 - rtp * gp2;
    tT[k] = -(u1[k] * dT1[k] + u2[k] * dT2[k]);
  }
  // One charge covers the Coriolis term and the tendencies.
  charge(cpe, vec, kNpp * 60);

  double f1[kNpp], f2[kNpp];
  for (int k = 0; k < kNpp; ++k) {
    f1[k] = dp[k] * u1[k];
    f2[k] = dp[k] * u2[k];
  }
  charge(cpe, vec, kNpp * 2);
  homme::divergence_sphere(g, f1, f2, divdp);
  charge(cpe, vec, kDivergenceFlops);
}

}  // namespace

void rhs_ref(PackedElems& p, const RhsAccConfig& cfg) {
  const int nlev = p.nlev;
  const std::size_t fs = p.field_size();
  std::vector<double> pm(fs), phim(fs), divdp(fs), omega(fs), tu1(fs),
      tu2(fs), tT(fs);
  for (int e = 0; e < p.nelem; ++e) {
    const double* geom = p.geom_of(e);
    const std::size_t eo = p.elem_offset(e);
    // Sequential scans, same recurrences as homme::column_*.
    double run[kNpp];
    for (int k = 0; k < kNpp; ++k) run[k] = kPtop;
    for (int lev = 0; lev < nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        const double d = p.dp[eo + fidx(lev, k)];
        pm[fidx(lev, k)] = run[k] + 0.5 * d;
        run[k] += d;
      }
    }
    for (int k = 0; k < kNpp; ++k) {
      run[k] = p.phis[static_cast<std::size_t>(e) * kNpp + k];
    }
    for (int lev = nlev - 1; lev >= 0; --lev) {
      for (int k = 0; k < kNpp; ++k) {
        const std::size_t f = fidx(lev, k);
        const double half =
            0.5 * kRgas * p.T[eo + f] * p.dp[eo + f] / pm[f];
        phim[f] = run[k] + half;
        run[k] += 2.0 * half;
      }
    }
    for (int lev = 0; lev < nlev; ++lev) {
      rhs_level_tile(geom, p.u1.data() + eo + fidx(lev, 0),
                     p.u2.data() + eo + fidx(lev, 0),
                     p.T.data() + eo + fidx(lev, 0),
                     p.dp.data() + eo + fidx(lev, 0), pm.data() + fidx(lev, 0),
                     phim.data() + fidx(lev, 0), tu1.data() + fidx(lev, 0),
                     tu2.data() + fidx(lev, 0), tT.data() + fidx(lev, 0),
                     divdp.data() + fidx(lev, 0), nullptr, false);
    }
    for (int k = 0; k < kNpp; ++k) run[k] = 0.0;
    for (int lev = 0; lev < nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        const std::size_t f = fidx(lev, k);
        omega[f] = -(run[k] + 0.5 * divdp[f]);
        run[k] += divdp[f];
      }
    }
    for (int lev = 0; lev < nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        const std::size_t f = fidx(lev, k);
        const double tTf = tT[f] + kKappa * p.T[eo + f] * omega[f] / pm[f];
        p.u1[eo + f] += cfg.dt * tu1[f];
        p.u2[eo + f] += cfg.dt * tu2[f];
        p.T[eo + f] += cfg.dt * tTf;
        p.dp[eo + f] -= cfg.dt * divdp[f];
      }
    }
  }
}

sw::KernelStats rhs_openacc(sw::CoreGroup& cg, PackedElems& p,
                            const RhsAccConfig& cfg) {
  const int nlev = p.nlev;
  const std::size_t fs = p.field_size();
  // Main-memory scratch the directive port keeps between regions.
  std::vector<double> pm(static_cast<std::size_t>(p.nelem) * fs),
      phim(static_cast<std::size_t>(p.nelem) * fs),
      divdp(static_cast<std::size_t>(p.nelem) * fs),
      omega(static_cast<std::size_t>(p.nelem) * fs),
      tu1(static_cast<std::size_t>(p.nelem) * fs),
      tu2(static_cast<std::size_t>(p.nelem) * fs),
      tT(static_cast<std::size_t>(p.nelem) * fs);

  auto kernel = [&](sw::Cpe& cpe) -> sw::Task {
    // Regions A, B and D carry a loop dependence along the levels; the
    // directive port has no way to restructure them (the deficiency the
    // register-communication scan of section 7.4 removes), so they run
    // serialized on one CPE with fine-grained 16-double DMA while the
    // other 63 CPEs wait — this is why the paper measures the OpenACC
    // version of this kernel *slower* than a single Intel core.
    if (cpe.id() == 0) {
      sw::LdmFrame frame(cpe.ldm());
      auto tile = cpe.ldm().alloc<double>(kNpp);
      auto tile2 = cpe.ldm().alloc<double>(kNpp);
      auto tile3 = cpe.ldm().alloc<double>(kNpp);
      auto carry = cpe.ldm().alloc<double>(kNpp);
      for (int e = 0; e < p.nelem; ++e) {
        const std::size_t eo = p.elem_offset(e);
        // Region A: pressure scan.
        for (int k = 0; k < kNpp; ++k) carry[k] = kPtop;
        for (int lev = 0; lev < nlev; ++lev) {
          cpe.get(tile, p.dp.data() + eo + fidx(lev, 0));
          for (int k = 0; k < kNpp; ++k) {
            tile2[static_cast<std::size_t>(k)] =
                carry[static_cast<std::size_t>(k)] +
                0.5 * tile[static_cast<std::size_t>(k)];
            carry[static_cast<std::size_t>(k)] +=
                tile[static_cast<std::size_t>(k)];
          }
          cpe.scalar_flops(kNpp * 2);
          cpe.put(pm.data() + eo + fidx(lev, 0),
                  std::span<const double>(tile2));
        }
        // Region B: geopotential scan (bottom-up), re-staging T/dp/pm.
        cpe.get(carry, p.phis.data() + static_cast<std::size_t>(e) * kNpp);
        for (int lev = nlev - 1; lev >= 0; --lev) {
          cpe.get(tile, p.T.data() + eo + fidx(lev, 0));
          cpe.get(tile2, p.dp.data() + eo + fidx(lev, 0));
          cpe.get(tile3, pm.data() + eo + fidx(lev, 0));
          double out[kNpp];
          for (int k = 0; k < kNpp; ++k) {
            const double half =
                0.5 * kRgas * tile[static_cast<std::size_t>(k)] *
                tile2[static_cast<std::size_t>(k)] /
                tile3[static_cast<std::size_t>(k)];
            out[k] = carry[static_cast<std::size_t>(k)] + half;
            carry[static_cast<std::size_t>(k)] += 2.0 * half;
          }
          cpe.scalar_flops(kNpp * 6);
          cpe.dma_wait(cpe.dma_put(phim.data() + eo + fidx(lev, 0), out,
                                   sizeof(out)));
        }
      }
    }
    co_await cpe.barrier();

    // Region C: per-level horizontal operators, collapse(e) parallel but
    // everything re-staged per level.
    for (int e = cpe.id(); e < p.nelem; e += sw::kCpesPerGroup) {
      const std::size_t eo = p.elem_offset(e);
      sw::LdmFrame frame(cpe.ldm());
      {
        sw::LdmFrame geom_frame(cpe.ldm());
        auto geom = cpe.ldm().alloc<double>(kGeomDoubles);
        cpe.get(geom, p.geom_of(e));
        for (int lev = 0; lev < nlev; ++lev) {
          sw::LdmFrame lf(cpe.ldm());
          auto u1 = cpe.ldm().alloc<double>(kNpp);
          auto u2 = cpe.ldm().alloc<double>(kNpp);
          auto T = cpe.ldm().alloc<double>(kNpp);
          auto dp = cpe.ldm().alloc<double>(kNpp);
          auto pmt = cpe.ldm().alloc<double>(kNpp);
          auto pht = cpe.ldm().alloc<double>(kNpp);
          cpe.get(u1, p.u1.data() + eo + fidx(lev, 0));
          cpe.get(u2, p.u2.data() + eo + fidx(lev, 0));
          cpe.get(T, p.T.data() + eo + fidx(lev, 0));
          cpe.get(dp, p.dp.data() + eo + fidx(lev, 0));
          cpe.get(pmt, pm.data() + eo + fidx(lev, 0));
          cpe.get(pht, phim.data() + eo + fidx(lev, 0));
          double a[kNpp], b[kNpp], c[kNpp], dd[kNpp];
          rhs_level_tile(geom.data(), u1.data(), u2.data(), T.data(),
                         dp.data(), pmt.data(), pht.data(), a, b, c, dd, &cpe,
                         /*vectorized=*/false);
          cpe.dma_wait(cpe.dma_put(tu1.data() + eo + fidx(lev, 0), a, sizeof(a)));
          cpe.dma_wait(cpe.dma_put(tu2.data() + eo + fidx(lev, 0), b, sizeof(b)));
          cpe.dma_wait(cpe.dma_put(tT.data() + eo + fidx(lev, 0), c, sizeof(c)));
          cpe.dma_wait(
              cpe.dma_put(divdp.data() + eo + fidx(lev, 0), dd, sizeof(dd)));
        }
      }
      co_await cpe.yield();
    }
    co_await cpe.barrier();

    // Region D: omega scan — serialized again on CPE 0.
    if (cpe.id() == 0) {
      sw::LdmFrame frame(cpe.ldm());
      auto tile = cpe.ldm().alloc<double>(kNpp);
      auto carry = cpe.ldm().alloc<double>(kNpp);
      for (int e = 0; e < p.nelem; ++e) {
        const std::size_t eo = p.elem_offset(e);
        for (int k = 0; k < kNpp; ++k) carry[k] = 0.0;
        for (int lev = 0; lev < nlev; ++lev) {
          cpe.get(tile, divdp.data() + eo + fidx(lev, 0));
          double out[kNpp];
          for (int k = 0; k < kNpp; ++k) {
            out[k] = -(carry[static_cast<std::size_t>(k)] +
                       0.5 * tile[static_cast<std::size_t>(k)]);
            carry[static_cast<std::size_t>(k)] +=
                tile[static_cast<std::size_t>(k)];
          }
          cpe.scalar_flops(kNpp * 2);
          cpe.dma_wait(cpe.dma_put(omega.data() + eo + fidx(lev, 0), out,
                                   sizeof(out)));
        }
      }
    }
    co_await cpe.barrier();

    // Region E: final update, collapse(e) parallel, one more re-stage.
    for (int e = cpe.id(); e < p.nelem; e += sw::kCpesPerGroup) {
      const std::size_t eo = p.elem_offset(e);
      for (int lev = 0; lev < nlev; ++lev) {
        sw::LdmFrame lf(cpe.ldm());
        auto u1 = cpe.ldm().alloc<double>(kNpp);
        auto u2 = cpe.ldm().alloc<double>(kNpp);
        auto T = cpe.ldm().alloc<double>(kNpp);
        auto dp = cpe.ldm().alloc<double>(kNpp);
        auto a = cpe.ldm().alloc<double>(kNpp);
        auto b = cpe.ldm().alloc<double>(kNpp);
        auto c = cpe.ldm().alloc<double>(kNpp);
        auto dd = cpe.ldm().alloc<double>(kNpp);
        auto om = cpe.ldm().alloc<double>(kNpp);
        auto pmt = cpe.ldm().alloc<double>(kNpp);
        cpe.get(u1, p.u1.data() + eo + fidx(lev, 0));
        cpe.get(u2, p.u2.data() + eo + fidx(lev, 0));
        cpe.get(T, p.T.data() + eo + fidx(lev, 0));
        cpe.get(dp, p.dp.data() + eo + fidx(lev, 0));
        cpe.get(a, tu1.data() + eo + fidx(lev, 0));
        cpe.get(b, tu2.data() + eo + fidx(lev, 0));
        cpe.get(c, tT.data() + eo + fidx(lev, 0));
        cpe.get(dd, divdp.data() + eo + fidx(lev, 0));
        cpe.get(om, omega.data() + eo + fidx(lev, 0));
        cpe.get(pmt, pm.data() + eo + fidx(lev, 0));
        for (int k = 0; k < kNpp; ++k) {
          const double tTf =
              c[static_cast<std::size_t>(k)] +
              kKappa * T[static_cast<std::size_t>(k)] *
                  om[static_cast<std::size_t>(k)] /
                  pmt[static_cast<std::size_t>(k)];
          u1[static_cast<std::size_t>(k)] += cfg.dt * a[static_cast<std::size_t>(k)];
          u2[static_cast<std::size_t>(k)] += cfg.dt * b[static_cast<std::size_t>(k)];
          T[static_cast<std::size_t>(k)] += cfg.dt * tTf;
          dp[static_cast<std::size_t>(k)] -= cfg.dt * dd[static_cast<std::size_t>(k)];
        }
        cpe.scalar_flops(kNpp * 12);
        cpe.put(p.u1.data() + eo + fidx(lev, 0), std::span<const double>(u1));
        cpe.put(p.u2.data() + eo + fidx(lev, 0), std::span<const double>(u2));
        cpe.put(p.T.data() + eo + fidx(lev, 0), std::span<const double>(T));
        cpe.put(p.dp.data() + eo + fidx(lev, 0), std::span<const double>(dp));
      }
      co_await cpe.yield();
    }
  };
  // Five parallel regions' worth of spawn overhead.
  return cg.run(kernel, sw::kCpesPerGroup, 5.0 * sw::kSpawnCycles);
}

namespace {

/// The Figure 2 register-communication implementation, shared by the
/// public wrapper and RhsKernel::launch.
sw::KernelStats rhs_athread_impl(sw::CoreGroup& cg, PackedElems& p,
                                 const RhsAccConfig& cfg) {
  const int levs = p.nlev / sw::kCpeRows;
  const std::size_t n = static_cast<std::size_t>(levs) * kNpp;

  auto kernel = [&, levs, n](sw::Cpe& cpe) -> sw::Task {
    std::vector<double> ptop_init(kNpp, kPtop), zero_init(kNpp, 0.0);
    for (int base = 0; base < p.nelem; base += sw::kCpeCols) {
      const int e = base + cpe.col();
      if (e >= p.nelem) continue;
      const int s = cpe.row() * levs;
      const std::size_t eo = p.elem_offset(e);
      sw::LdmFrame frame(cpe.ldm());
      auto geom = cpe.ldm().alloc<double>(kGeomDoubles);
      auto u1 = cpe.ldm().alloc<double>(n);
      auto u2 = cpe.ldm().alloc<double>(n);
      auto T = cpe.ldm().alloc<double>(n);
      auto dp = cpe.ldm().alloc<double>(n);
      auto pmv = cpe.ldm().alloc<double>(n);
      auto phiv = cpe.ldm().alloc<double>(n);
      auto divdp = cpe.ldm().alloc<double>(n);
      auto phis = cpe.ldm().alloc<double>(kNpp);
      cpe.get(geom, p.geom_of(e));
      cpe.get(u1, p.u1.data() + eo + fidx(s, 0));
      cpe.get(u2, p.u2.data() + eo + fidx(s, 0));
      cpe.get(T, p.T.data() + eo + fidx(s, 0));
      cpe.get(dp, p.dp.data() + eo + fidx(s, 0));
      cpe.get(phis, p.phis.data() + static_cast<std::size_t>(e) * kNpp);

      // Pressure: exclusive down-scan of dp along the CPE column, then
      // the half-layer correction — the 3-stage scan of Figure 2(b).
      std::copy(dp.begin(), dp.end(), pmv.begin());
      co_await sw::column_scan_exclusive(cpe, pmv, kNpp, ptop_init,
                                         sw::ScanDir::kDown);
      for (std::size_t i = 0; i < n; ++i) pmv[i] += 0.5 * dp[i];
      cpe.vector_flops(n * 2);

      // Geopotential: exclusive up-scan of R*T*dp/p plus half-layer.
      for (std::size_t i = 0; i < n; ++i) {
        phiv[i] = kRgas * T[i] * dp[i] / pmv[i];
      }
      cpe.vector_flops(n * 3);
      {
        // Save the integrand to add the half term after the scan.
        auto h = cpe.ldm().alloc<double>(n);
        std::copy(phiv.begin(), phiv.end(), h.begin());
        co_await sw::column_scan_exclusive(cpe, phiv, kNpp, phis,
                                           sw::ScanDir::kUp);
        for (std::size_t i = 0; i < n; ++i) phiv[i] += 0.5 * h[i];
        cpe.vector_flops(n * 2);
      }

      auto tu1 = cpe.ldm().alloc<double>(n);
      auto tu2 = cpe.ldm().alloc<double>(n);
      auto tT = cpe.ldm().alloc<double>(n);
      for (int l = 0; l < levs; ++l) {
        const std::size_t t = static_cast<std::size_t>(l) * kNpp;
        rhs_level_tile(geom.data(), u1.data() + t, u2.data() + t,
                       T.data() + t, dp.data() + t, pmv.data() + t,
                       phiv.data() + t, tu1.data() + t, tu2.data() + t,
                       tT.data() + t, divdp.data() + t, &cpe,
                       /*vectorized=*/true);
      }

      // Omega: exclusive down-scan of divdp.
      auto om = cpe.ldm().alloc<double>(n);
      std::copy(divdp.begin(), divdp.end(), om.begin());
      co_await sw::column_scan_exclusive(cpe, om, kNpp, zero_init,
                                         sw::ScanDir::kDown);
      for (std::size_t i = 0; i < n; ++i) {
        om[i] = -(om[i] + 0.5 * divdp[i]);
      }
      cpe.vector_flops(n * 2);

      for (std::size_t i = 0; i < n; ++i) {
        const double tTf = tT[i] + kKappa * T[i] * om[i] / pmv[i];
        u1[i] += cfg.dt * tu1[i];
        u2[i] += cfg.dt * tu2[i];
        T[i] += cfg.dt * tTf;
        dp[i] -= cfg.dt * divdp[i];
      }
      cpe.vector_flops(n * 12);
      cpe.put(p.u1.data() + eo + fidx(s, 0), std::span<const double>(u1));
      cpe.put(p.u2.data() + eo + fidx(s, 0), std::span<const double>(u2));
      cpe.put(p.T.data() + eo + fidx(s, 0), std::span<const double>(T));
      cpe.put(p.dp.data() + eo + fidx(s, 0), std::span<const double>(dp));
    }
  };
  return cg.run(kernel, sw::kCpesPerGroup, sw::kSpawnCycles);
}

}  // namespace

void RhsKernel::validate(const Workset&) const {
  if (p_.nlev % sw::kCpeRows != 0) {
    throw std::invalid_argument(
        "rhs_athread: nlev must be a multiple of the CPE row count (8); "
        "the Figure 2 layer decomposition requires equal blocks");
  }
}

void RhsKernel::bind(Workset& ws) const {
  ws.items(p_.nelem, p_.nlev);
  ws.dvv = p_.dvv.data();
  const std::size_t fs = p_.field_size();
  const std::size_t geom = static_cast<std::size_t>(kGeomDoubles);
  ws.bind({FieldId::kGeom, p_.geom.data(), geom, geom, 1, 0, false});
  ws.bind({FieldId::kU1, p_.u1.data(), fs, fs, 1, 0, true});
  ws.bind({FieldId::kU2, p_.u2.data(), fs, fs, 1, 0, true});
  ws.bind({FieldId::kT, p_.T.data(), fs, fs, 1, 0, true});
  ws.bind({FieldId::kDp, p_.dp.data(), fs, fs, 1, 0, true});
  ws.bind({FieldId::kPhis, p_.phis.data(), kNpp, kNpp, 1, 0, false});
}

std::vector<FieldUse> RhsKernel::footprint() const {
  // Declared for introspection; the kernel is non-fusible (its column
  // scans span CPE rows), so these never enter a fused keep plan.
  return {
      {FieldId::kGeom, Access::kRead, false},
      {FieldId::kU1, Access::kReadWrite, false},
      {FieldId::kU2, Access::kReadWrite, false},
      {FieldId::kT, Access::kReadWrite, false},
      {FieldId::kDp, Access::kReadWrite, false},
      {FieldId::kPhis, Access::kRead, false},
  };
}

sw::KernelStats RhsKernel::launch(sw::CoreGroup& cg, const Workset&) const {
  return rhs_athread_impl(cg, p_, cfg_);
}

sw::KernelStats rhs_athread(sw::CoreGroup& cg, PackedElems& p,
                            const RhsAccConfig& cfg) {
  RhsKernel k(p, cfg);
  KernelPipeline pipe({&k});
  return pipe.run(cg);
}

}  // namespace accel
