#include "homme/rhs.hpp"

#include <cassert>

#include "homme/exchange.hpp"
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

void rhs_level(const MetricView& g, const FrameView& f, const double* cor,
               const double* u1, const double* u2, const double* T,
               const double* Tv, const double* dp, const double* p_mid,
               const double* phi_mid, double* tu1, double* tu2, double* tT,
               double* divdp) {
  double vort[kNpp], absvort[kNpp], energy[kNpp];
  double gE1[kNpp], gE2[kNpp];
  double d1p[kNpp], d2p[kNpp];
  double cor1[kNpp], cor2[kNpp];
  double d1T[kNpp], d2T[kNpp];
  double flux1[kNpp], flux2[kNpp];

  vorticity_sphere(g, u1, u2, vort);
  for (int p = 0; p < kTilePacks; ++p) {
    const int k = p * vpack::width;
    const vpack vu1 = vpack::load(u1 + k), vu2 = vpack::load(u2 + k);
    const vpack ke = 0.5 * (vpack::load(g.g11 + k) * vu1 * vu1 +
                            2.0 * vpack::load(g.g12 + k) * vu1 * vu2 +
                            vpack::load(g.g22 + k) * vu2 * vu2);
    (vpack::load(vort + k) + vpack::load(cor + k)).store(absvort + k);
    (ke + vpack::load(phi_mid + k)).store(energy + k);
  }
  gradient_sphere(g, energy, gE1, gE2);
  gradient_covariant(p_mid, d1p, d2p);
  coriolis_vorticity_term(f, absvort, u1, u2, cor1, cor2);
  gradient_covariant(T, d1T, d2T);

  // Mass flux divergence.
  for (int p = 0; p < kTilePacks; ++p) {
    const int k = p * vpack::width;
    const vpack vdp = vpack::load(dp + k);
    (vdp * vpack::load(u1 + k)).store(flux1 + k);
    (vdp * vpack::load(u2 + k)).store(flux2 + k);
  }
  divergence_sphere(g, flux1, flux2, divdp);

  for (int p = 0; p < kTilePacks; ++p) {
    const int k = p * vpack::width;
    const vpack rtp = kRgas * vpack::load(Tv + k) / vpack::load(p_mid + k);
    const vpack vd1p = vpack::load(d1p + k), vd2p = vpack::load(d2p + k);
    const vpack gp1 = vpack::load(g.ginv11 + k) * vd1p +
                      vpack::load(g.ginv12 + k) * vd2p;
    const vpack gp2 = vpack::load(g.ginv12 + k) * vd1p +
                      vpack::load(g.ginv22 + k) * vd2p;
    (-vpack::load(cor1 + k) - vpack::load(gE1 + k) - rtp * gp1)
        .store(tu1 + k);
    (-vpack::load(cor2 + k) - vpack::load(gE2 + k) - rtp * gp2)
        .store(tu2 + k);
    // Advection of T: contravariant wind dotted with covariant gradient.
    (-(vpack::load(u1 + k) * vpack::load(d1T + k) +
       vpack::load(u2 + k) * vpack::load(d2T + k)))
        .store(tT + k);
  }
}

void element_rhs(const mesh::ElementGeom& g, const Dims& d,
                 const ElementState& eval, const TendView& tend) {
  const int nlev = d.nlev;
  const std::size_t fs = d.field_size();

  ScratchArena& arena = ScratchArena::thread_local_arena();
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

  const MetricView mview = g;
  const FrameView fview = g;
  for (int lev = 0; lev < nlev; ++lev) {
    const std::size_t l = fidx(lev, 0);
    rhs_level(mview, fview, g.coriolis.data(), eval.u1.data() + l,
              eval.u2.data() + l, eval.T.data() + l, t_for_phi + l,
              eval.dp.data() + l, p_mid.data() + l, phi_mid.data() + l,
              tend.u1 + l, tend.u2 + l, tend.T + l, divdp.data() + l);
  }

  column_omega(nlev, divdp.data(), omega.data());
  for (std::size_t f = 0; f < fs; f += vpack::width) {
    const vpack corr = kKappa * vpack::load(t_for_phi + f) *
                       vpack::load(omega.data() + f) /
                       vpack::load(p_mid.data() + f);
    (vpack::load(tend.T + f) + corr).store(tend.T + f);
    (-vpack::load(divdp.data() + f)).store(tend.dp + f);
  }
}

void compute_and_apply_rhs(const Exchange& x, const Dims& d, const State& in,
                           double dt, State& out) {
  assert(in.size() == static_cast<std::size_t>(x.nelem()));
  assert(out.size() == in.size());

  const std::size_t fs = d.field_size();
  ScratchArena& arena = ScratchArena::thread_local_arena();
  ScratchArena::Frame frame(arena);
  const TendView tend{arena.alloc(fs).data(), arena.alloc(fs).data(),
                      arena.alloc(fs).data(), arena.alloc(fs).data()};
  for (int e = 0; e < x.nelem(); ++e) {
    const std::size_t se = static_cast<std::size_t>(e);
    element_rhs(x.geom(e), d, in[se], tend);
    ElementState& o = out[se];
    const ElementState& b = in[se];
    std::span<double> ou1 = o.u1.mutable_span(), ou2 = o.u2.mutable_span(),
                      oT = o.T.mutable_span(), odp = o.dp.mutable_span();
    for (std::size_t f = 0; f < fs; f += vpack::width) {
      (vpack::load(b.u1.data() + f) + dt * vpack::load(tend.u1 + f))
          .store(ou1.data() + f);
      (vpack::load(b.u2.data() + f) + dt * vpack::load(tend.u2 + f))
          .store(ou2.data() + f);
      (vpack::load(b.T.data() + f) + dt * vpack::load(tend.T + f))
          .store(oT.data() + f);
      (vpack::load(b.dp.data() + f) + dt * vpack::load(tend.dp + f))
          .store(odp.data() + f);
    }
    o.phis = b.phis;
  }

  x.dss_vector(arena_ptrs(arena, out, &ElementState::u1),
               arena_ptrs(arena, out, &ElementState::u2), d.nlev);
  x.dss(arena_ptrs(arena, out, &ElementState::T), d.nlev);
  x.dss(arena_ptrs(arena, out, &ElementState::dp), d.nlev);
}

}  // namespace homme
