#include "accel/rhs_acc.hpp"

#include <cassert>
#include <cmath>
#include <vector>

#include "accel/pipeline.hpp"
#include "homme/dims.hpp"
#include "homme/rhs.hpp"
#include "homme/state.hpp"
#include "sw/scan.hpp"
#include "sw/task.hpp"

namespace accel {

using homme::fidx;
using homme::kKappa;
using homme::kPtop;
using homme::kRgas;

namespace {

/// homme::rhs_level on one level of a staged element, dry (T is its own
/// virtual temperature). geom points at the element's 23 staged tiles:
/// the metric view, the frame view and the Coriolis tile all read them.
/// The level's flops are charged term by term in a fixed order: the
/// modeled clock is a sum of doubles, so the order is part of Table 1's
/// values.
void rhs_level_tile(const double* geom, const double* u1, const double* u2,
                    const double* T, const double* dp, const double* pm,
                    const double* phim, double* tu1, double* tu2, double* tT,
                    double* divdp, sw::Cpe& cpe, bool vec) {
  homme::rhs_level(homme::MetricView(geom, kMetricTiles),
                   homme::FrameView(geom + kA1X * kNpp), geom + kCor * kNpp,
                   u1, u2, T, T, dp, pm, phim, tu1, tu2, tT, divdp);
  // Vorticity; kinetic energy; the energy, pressure and T derivatives;
  // the Coriolis term and the tendencies; the mass flux; its divergence.
  for (const std::uint64_t n :
       {kVorticityFlops, std::uint64_t{kNpp * 10}, kDerivFlops, kDerivFlops,
        kDerivFlops, std::uint64_t{kNpp * 60}, std::uint64_t{kNpp * 2},
        kDivergenceFlops}) {
    charge(cpe, vec, n);
  }
}

}  // namespace

sw::KernelStats rhs_openacc(sw::CoreGroup& cg, const homme::Dims& d,
                            homme::State& s, const PackedGeometry& g) {
  const StateBlocks blocks(d, s);
  const int nelem = blocks.nelem();
  const int nlev = d.nlev;
  const std::size_t fs = d.field_size();
  // Main-memory scratch the directive port keeps between regions.
  std::vector<double> pm(static_cast<std::size_t>(nelem) * fs),
      phim(static_cast<std::size_t>(nelem) * fs),
      divdp(static_cast<std::size_t>(nelem) * fs),
      omega(static_cast<std::size_t>(nelem) * fs),
      tu1(static_cast<std::size_t>(nelem) * fs),
      tu2(static_cast<std::size_t>(nelem) * fs),
      tT(static_cast<std::size_t>(nelem) * fs);

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
      for (int e = 0; e < nelem; ++e) {
        const std::size_t eo = static_cast<std::size_t>(e) * fs;
        // Region A: pressure scan.
        for (int k = 0; k < kNpp; ++k) carry[k] = kPtop;
        for (int lev = 0; lev < nlev; ++lev) {
          cpe.get(tile, blocks.from(FieldId::kDp, e) + fidx(lev, 0));
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
        cpe.get(carry, blocks.from(FieldId::kPhis, e));
        for (int lev = nlev - 1; lev >= 0; --lev) {
          cpe.get(tile, blocks.from(FieldId::kT, e) + fidx(lev, 0));
          cpe.get(tile2, blocks.from(FieldId::kDp, e) + fidx(lev, 0));
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
    for (int e = cpe.id(); e < nelem; e += sw::kCpesPerGroup) {
      const std::size_t eo = static_cast<std::size_t>(e) * fs;
      sw::LdmFrame frame(cpe.ldm());
      {
        sw::LdmFrame geom_frame(cpe.ldm());
        auto geom = cpe.ldm().alloc<double>(kGeomDoubles);
        cpe.get(geom, g.geom_of(e));
        for (int lev = 0; lev < nlev; ++lev) {
          sw::LdmFrame lf(cpe.ldm());
          auto u1 = cpe.ldm().alloc<double>(kNpp);
          auto u2 = cpe.ldm().alloc<double>(kNpp);
          auto T = cpe.ldm().alloc<double>(kNpp);
          auto dp = cpe.ldm().alloc<double>(kNpp);
          auto pmt = cpe.ldm().alloc<double>(kNpp);
          auto pht = cpe.ldm().alloc<double>(kNpp);
          cpe.get(u1, blocks.from(FieldId::kU1, e) + fidx(lev, 0));
          cpe.get(u2, blocks.from(FieldId::kU2, e) + fidx(lev, 0));
          cpe.get(T, blocks.from(FieldId::kT, e) + fidx(lev, 0));
          cpe.get(dp, blocks.from(FieldId::kDp, e) + fidx(lev, 0));
          cpe.get(pmt, pm.data() + eo + fidx(lev, 0));
          cpe.get(pht, phim.data() + eo + fidx(lev, 0));
          double a[kNpp], b[kNpp], c[kNpp], dd[kNpp];
          rhs_level_tile(geom.data(), u1.data(), u2.data(), T.data(),
                         dp.data(), pmt.data(), pht.data(), a, b, c, dd, cpe,
                         /*vec=*/false);
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
      for (int e = 0; e < nelem; ++e) {
        const std::size_t eo = static_cast<std::size_t>(e) * fs;
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
    for (int e = cpe.id(); e < nelem; e += sw::kCpesPerGroup) {
      const std::size_t eo = static_cast<std::size_t>(e) * fs;
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
        const std::size_t l = fidx(lev, 0);
        cpe.get(u1, blocks.from(FieldId::kU1, e) + l);
        cpe.get(u2, blocks.from(FieldId::kU2, e) + l);
        cpe.get(T, blocks.from(FieldId::kT, e) + l);
        cpe.get(dp, blocks.from(FieldId::kDp, e) + l);
        cpe.get(a, tu1.data() + eo + l);
        cpe.get(b, tu2.data() + eo + l);
        cpe.get(c, tT.data() + eo + l);
        cpe.get(dd, divdp.data() + eo + l);
        cpe.get(om, omega.data() + eo + l);
        cpe.get(pmt, pm.data() + eo + l);
        for (int k = 0; k < kNpp; ++k) {
          const double tTf =
              c[static_cast<std::size_t>(k)] +
              kKappa * T[static_cast<std::size_t>(k)] *
                  om[static_cast<std::size_t>(k)] /
                  pmt[static_cast<std::size_t>(k)];
          u1[static_cast<std::size_t>(k)] += kPortDt * a[static_cast<std::size_t>(k)];
          u2[static_cast<std::size_t>(k)] += kPortDt * b[static_cast<std::size_t>(k)];
          T[static_cast<std::size_t>(k)] += kPortDt * tTf;
          dp[static_cast<std::size_t>(k)] -= kPortDt * dd[static_cast<std::size_t>(k)];
        }
        cpe.scalar_flops(kNpp * 12);
        cpe.put(blocks.to(FieldId::kU1, e) + l, std::span<const double>(u1));
        cpe.put(blocks.to(FieldId::kU2, e) + l, std::span<const double>(u2));
        cpe.put(blocks.to(FieldId::kT, e) + l, std::span<const double>(T));
        cpe.put(blocks.to(FieldId::kDp, e) + l, std::span<const double>(dp));
      }
      co_await cpe.yield();
    }
  };
  // Five parallel regions' worth of spawn overhead.
  return cg.run(kernel, sw::kCpesPerGroup, 5.0 * sw::kSpawnCycles);
}

void RhsKernel::validate(const Workset& ws) const {
  if (ws.nlev % sw::kCpeRows != 0) {
    throw std::invalid_argument(
        "rhs_athread: nlev must be a multiple of the CPE row count (8); "
        "the Figure 2 layer decomposition requires equal blocks");
  }
}

void RhsKernel::bind(Workset& ws) const {
  ws.items(b_.nelem(), b_.dims().nlev);
  ws.dvv = g_.dvv.data();
  const std::size_t geom = static_cast<std::size_t>(kGeomDoubles);
  ws.bind({FieldId::kGeom, const_cast<double*>(g_.geom.data()), geom, geom,
           1, 0, false});
  for (const FieldId id :
       {FieldId::kU1, FieldId::kU2, FieldId::kT, FieldId::kDp}) {
    ws.bind(b_.binding(id, /*writable=*/true, /*keep=*/false));
  }
  ws.bind(b_.binding(FieldId::kPhis, /*writable=*/false, /*keep=*/false));
}

sw::KernelStats RhsKernel::launch(sw::CoreGroup& cg,
                                  const Workset& ws) const {
  // The Figure 2 register-communication implementation.
  const int nelem = ws.nitems;
  const int levs = ws.nlev / sw::kCpeRows;
  const std::size_t n = static_cast<std::size_t>(levs) * kNpp;

  auto kernel = [&, levs, n](sw::Cpe& cpe) -> sw::Task {
    std::vector<double> ptop_init(kNpp, kPtop), zero_init(kNpp, 0.0);
    // Column c owns elements c, c + 8, ...: a CPE with an element stages
    // the derivative matrix its level bodies read, as a fused launch does.
    if (cpe.col() < nelem) stage_dvv(cpe, ws);
    for (int base = 0; base < nelem; base += sw::kCpeCols) {
      const int e = base + cpe.col();
      if (e >= nelem) continue;
      const int s = cpe.row() * levs;
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
      cpe.get(geom, ws.read_addr(FieldId::kGeom, e, 0));
      cpe.get(u1, ws.read_addr(FieldId::kU1, e, 0) + fidx(s, 0));
      cpe.get(u2, ws.read_addr(FieldId::kU2, e, 0) + fidx(s, 0));
      cpe.get(T, ws.read_addr(FieldId::kT, e, 0) + fidx(s, 0));
      cpe.get(dp, ws.read_addr(FieldId::kDp, e, 0) + fidx(s, 0));
      cpe.get(phis, ws.read_addr(FieldId::kPhis, e, 0));

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
                       tT.data() + t, divdp.data() + t, cpe, /*vec=*/true);
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
        u1[i] += kPortDt * tu1[i];
        u2[i] += kPortDt * tu2[i];
        T[i] += kPortDt * tTf;
        dp[i] -= kPortDt * divdp[i];
      }
      cpe.vector_flops(n * 12);
      cpe.put(ws.write_addr(FieldId::kU1, e, 0) + fidx(s, 0),
              std::span<const double>(u1));
      cpe.put(ws.write_addr(FieldId::kU2, e, 0) + fidx(s, 0),
              std::span<const double>(u2));
      cpe.put(ws.write_addr(FieldId::kT, e, 0) + fidx(s, 0),
              std::span<const double>(T));
      cpe.put(ws.write_addr(FieldId::kDp, e, 0) + fidx(s, 0),
              std::span<const double>(dp));
    }
  };
  return cg.run(kernel, sw::kCpesPerGroup, sw::kSpawnCycles);
}

sw::KernelStats rhs_athread(sw::CoreGroup& cg, const homme::Dims& d,
                            homme::State& s, const PackedGeometry& g) {
  const StateBlocks b(d, s);
  RhsKernel k(b, g);
  KernelPipeline pipe({&k});
  return pipe.run(cg);
}

}  // namespace accel
