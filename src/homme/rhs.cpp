#include "homme/rhs.hpp"

#include <cassert>

#include "homme/exchange.hpp"
#include "homme/ops.hpp"
#include "homme/scratch.hpp"
#include "homme/vpack.hpp"

namespace homme {

using mesh::kNpp;

// The three vertical scans and the per-level inner loops below are the
// vectorized (vpack) forms of the scalar loops preserved verbatim in
// ref_kernels.cpp. Each lane performs exactly the scalar operation
// sequence, so the rewrite changes data movement, not arithmetic.

void column_pressure(int nlev, const double* dp, double* p_mid) {
  vpack run[kTilePacks];
  for (int p = 0; p < kTilePacks; ++p) run[p] = vpack::fill(kPtop);
  for (int lev = 0; lev < nlev; ++lev) {
    const double* dpl = dp + fidx(lev, 0);
    double* pl = p_mid + fidx(lev, 0);
    for (int p = 0; p < kTilePacks; ++p) {
      const vpack d = vpack::load(dpl + p * vpack::width);
      (run[p] + 0.5 * d).store(pl + p * vpack::width);
      run[p] += d;
    }
  }
}

void column_geopotential(int nlev, const double* T, const double* dp,
                         const double* p_mid, const double* phis,
                         double* phi_mid) {
  vpack run[kTilePacks];
  for (int p = 0; p < kTilePacks; ++p) {
    run[p] = vpack::load(phis + p * vpack::width);
  }
  for (int lev = nlev - 1; lev >= 0; --lev) {
    const double* Tl = T + fidx(lev, 0);
    const double* dpl = dp + fidx(lev, 0);
    const double* pl = p_mid + fidx(lev, 0);
    double* phil = phi_mid + fidx(lev, 0);
    for (int p = 0; p < kTilePacks; ++p) {
      const int k = p * vpack::width;
      const vpack half = 0.5 * kRgas * vpack::load(Tl + k) *
                         vpack::load(dpl + k) / vpack::load(pl + k);
      (run[p] + half).store(phil + k);
      run[p] += 2.0 * half;
    }
  }
}

void column_omega(int nlev, const double* divdp, double* omega) {
  vpack run[kTilePacks];
  for (int p = 0; p < kTilePacks; ++p) run[p] = vpack::zero();
  for (int lev = 0; lev < nlev; ++lev) {
    const double* dl = divdp + fidx(lev, 0);
    double* ol = omega + fidx(lev, 0);
    for (int p = 0; p < kTilePacks; ++p) {
      const int k = p * vpack::width;
      const vpack d = vpack::load(dl + k);
      (-(run[p] + 0.5 * d)).store(ol + k);
      run[p] += d;
    }
  }
}

void element_rhs(const mesh::ElementGeom& g, const Dims& d,
                 const ElementState& eval, ElementTend& tend) {
  const int nlev = d.nlev;
  const std::size_t fs = d.field_size();

  ScratchArena& arena = ScratchArena::thread_local_arena();
  if (arena.capacity() < 5 * fs) arena.require(5 * fs);
  ScratchArena::Frame frame(arena);
  std::span<double> p_mid = arena.alloc(fs), phi_mid = arena.alloc(fs),
                    divdp = arena.alloc(fs), omega = arena.alloc(fs);

  column_pressure(nlev, eval.dp.data(), p_mid.data());

  // Moist dynamics: the hydrostatic and pressure-gradient terms see the
  // virtual temperature Tv = T (1 + zvir q), with tracer 0 as specific
  // humidity (q = qdp / dp), exactly as CAM couples moisture back.
  const double* t_for_phi = eval.T.data();
  if (d.moist && d.qsize > 0) {
    std::span<double> tv = arena.alloc(fs);
    auto q0 = eval.q(0, d);
    for (std::size_t f = 0; f < fs; f += vpack::width) {
      const vpack q = vpack::load(q0.data() + f);
      const vpack dp = vpack::load(eval.dp.data() + f);
      const vpack T = vpack::load(eval.T.data() + f);
      (T * (vpack::fill(1.0) + kZvir * q / dp)).store(tv.data() + f);
    }
    t_for_phi = tv.data();
  }
  column_geopotential(nlev, t_for_phi, eval.dp.data(), p_mid.data(),
                      eval.phis.data(), phi_mid.data());

  const FrameView fview = g;
  double vort[kNpp], absvort[kNpp], energy[kNpp];
  double gE1[kNpp], gE2[kNpp];
  double d1p[kNpp], d2p[kNpp];
  double cor1[kNpp], cor2[kNpp];
  double d1T[kNpp], d2T[kNpp];
  double flux1[kNpp], flux2[kNpp];

  for (int lev = 0; lev < nlev; ++lev) {
    const double* u1 = eval.u1.data() + fidx(lev, 0);
    const double* u2 = eval.u2.data() + fidx(lev, 0);
    const double* T = eval.T.data() + fidx(lev, 0);
    const double* Tv = t_for_phi + fidx(lev, 0);
    const double* dp = eval.dp.data() + fidx(lev, 0);
    const double* pm = p_mid.data() + fidx(lev, 0);
    const double* phim = phi_mid.data() + fidx(lev, 0);

    vorticity_sphere(g, u1, u2, vort);
    for (int p = 0; p < kTilePacks; ++p) {
      const int k = p * vpack::width;
      const vpack vu1 = vpack::load(u1 + k), vu2 = vpack::load(u2 + k);
      const vpack ke =
          0.5 * (vpack::load(g.g11.data() + k) * vu1 * vu1 +
                 2.0 * vpack::load(g.g12.data() + k) * vu1 * vu2 +
                 vpack::load(g.g22.data() + k) * vu2 * vu2);
      (vpack::load(vort + k) + vpack::load(g.coriolis.data() + k))
          .store(absvort + k);
      (ke + vpack::load(phim + k)).store(energy + k);
    }
    gradient_sphere(g, energy, gE1, gE2);
    gradient_covariant(pm, d1p, d2p);
    coriolis_vorticity_term(fview, absvort, u1, u2, cor1, cor2);
    gradient_covariant(T, d1T, d2T);

    // Mass flux divergence.
    for (int p = 0; p < kTilePacks; ++p) {
      const int k = p * vpack::width;
      const vpack vdp = vpack::load(dp + k);
      (vdp * vpack::load(u1 + k)).store(flux1 + k);
      (vdp * vpack::load(u2 + k)).store(flux2 + k);
    }
    divergence_sphere(g, flux1, flux2, divdp.data() + fidx(lev, 0));

    double* tu1 = tend.u1.data() + fidx(lev, 0);
    double* tu2 = tend.u2.data() + fidx(lev, 0);
    double* tT = tend.T.data() + fidx(lev, 0);
    double* tdp = tend.dp.data() + fidx(lev, 0);
    const double* divl = divdp.data() + fidx(lev, 0);
    for (int p = 0; p < kTilePacks; ++p) {
      const int k = p * vpack::width;
      const vpack rtp = kRgas * vpack::load(Tv + k) / vpack::load(pm + k);
      const vpack vd1p = vpack::load(d1p + k), vd2p = vpack::load(d2p + k);
      const vpack gp1 = vpack::load(g.ginv11.data() + k) * vd1p +
                        vpack::load(g.ginv12.data() + k) * vd2p;
      const vpack gp2 = vpack::load(g.ginv12.data() + k) * vd1p +
                        vpack::load(g.ginv22.data() + k) * vd2p;
      (-vpack::load(cor1 + k) - vpack::load(gE1 + k) - rtp * gp1)
          .store(tu1 + k);
      (-vpack::load(cor2 + k) - vpack::load(gE2 + k) - rtp * gp2)
          .store(tu2 + k);
      // Advection of T: contravariant wind dotted with covariant gradient.
      (-(vpack::load(u1 + k) * vpack::load(d1T + k) +
         vpack::load(u2 + k) * vpack::load(d2T + k)))
          .store(tT + k);
      (-vpack::load(divl + k)).store(tdp + k);
    }
  }

  column_omega(nlev, divdp.data(), omega.data());
  for (std::size_t f = 0; f < fs; f += vpack::width) {
    const vpack corr = kKappa * vpack::load(t_for_phi + f) *
                       vpack::load(omega.data() + f) /
                       vpack::load(p_mid.data() + f);
    (vpack::load(tend.T.data() + f) + corr).store(tend.T.data() + f);
  }
}

void compute_and_apply_rhs(const Exchange& x, const Dims& d,
                           const State& base, const State& eval, double dt,
                           State& out) {
  assert(base.size() == static_cast<std::size_t>(x.nelem()));
  assert(eval.size() == base.size() && out.size() == base.size());

  ElementTend tend(d);
  for (int e = 0; e < x.nelem(); ++e) {
    const std::size_t se = static_cast<std::size_t>(e);
    element_rhs(x.geom(e), d, eval[se], tend);
    ElementState& o = out[se];
    const ElementState& b = base[se];
    std::span<double> ou1 = o.u1.mutable_span(), ou2 = o.u2.mutable_span(),
                      oT = o.T.mutable_span(), odp = o.dp.mutable_span();
    for (std::size_t f = 0; f < d.field_size(); f += vpack::width) {
      (vpack::load(b.u1.data() + f) + dt * vpack::load(tend.u1.data() + f))
          .store(ou1.data() + f);
      (vpack::load(b.u2.data() + f) + dt * vpack::load(tend.u2.data() + f))
          .store(ou2.data() + f);
      (vpack::load(b.T.data() + f) + dt * vpack::load(tend.T.data() + f))
          .store(oT.data() + f);
      (vpack::load(b.dp.data() + f) + dt * vpack::load(tend.dp.data() + f))
          .store(odp.data() + f);
    }
    o.phis = b.phis;
  }

  auto u1p = field_ptrs(out, &ElementState::u1);
  auto u2p = field_ptrs(out, &ElementState::u2);
  auto Tp = field_ptrs(out, &ElementState::T);
  auto dpp = field_ptrs(out, &ElementState::dp);
  x.dss_vector(u1p, u2p, d.nlev);
  x.dss(Tp, d.nlev);
  x.dss(dpp, d.nlev);
}

}  // namespace homme
