#include "homme/ref_kernels.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "homme/dss.hpp"
#include "homme/euler.hpp"
#include "homme/ops.hpp"
#include "homme/scratch.hpp"
#include "mesh/gll.hpp"

// The bodies below are the pre-rewrite ops.cpp / rhs.cpp / remap.cpp /
// euler.cpp / dss.cpp hot paths, verbatim (the rotations read the frame's
// component tiles, the layout ElementGeom stores): they are the baseline
// the vectorized kernels are tested and benchmarked against, so they must
// stay untouched by future tuning. Inside this namespace the operator and
// DSS names resolve to the scalar twins, so element_rhs, euler_step and
// the vector DSS stay frozen with them.

namespace homme::ref {

using mesh::gidx;
using mesh::kNp;
using mesh::kNpp;

void deriv_ref(const double* s, double* d1, double* d2) {
  const auto& D = mesh::gll().deriv;
  for (int j = 0; j < kNp; ++j) {
    for (int i = 0; i < kNp; ++i) {
      double dx = 0.0, dy = 0.0;
      for (int m = 0; m < kNp; ++m) {
        dx += D[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)] *
              s[gidx(m, j)];
        dy += D[static_cast<std::size_t>(j)][static_cast<std::size_t>(m)] *
              s[gidx(i, m)];
      }
      d1[gidx(i, j)] = dx;
      d2[gidx(i, j)] = dy;
    }
  }
}

namespace {

void gradient_covariant(const double* s, double* d1, double* d2) {
  deriv_ref(s, d1, d2);
}

void gradient_sphere(const mesh::ElementGeom& g, const double* s, double* g1,
                     double* g2) {
  double d1[kNpp], d2[kNpp];
  deriv_ref(s, d1, d2);
  for (int k = 0; k < kNpp; ++k) {
    g1[k] = g.ginv11[static_cast<std::size_t>(k)] * d1[k] +
            g.ginv12[static_cast<std::size_t>(k)] * d2[k];
    g2[k] = g.ginv12[static_cast<std::size_t>(k)] * d1[k] +
            g.ginv22[static_cast<std::size_t>(k)] * d2[k];
  }
}

}  // namespace

void divergence_sphere(const mesh::ElementGeom& g, const double* u1,
                       const double* u2, double* div) {
  const auto& D = mesh::gll().deriv;
  double ju1[kNpp], ju2[kNpp];
  for (int k = 0; k < kNpp; ++k) {
    ju1[k] = g.jac[static_cast<std::size_t>(k)] * u1[k];
    ju2[k] = g.jac[static_cast<std::size_t>(k)] * u2[k];
  }
  for (int j = 0; j < kNp; ++j) {
    for (int i = 0; i < kNp; ++i) {
      double dx = 0.0, dy = 0.0;
      for (int m = 0; m < kNp; ++m) {
        dx += D[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)] *
              ju1[gidx(m, j)];
        dy += D[static_cast<std::size_t>(j)][static_cast<std::size_t>(m)] *
              ju2[gidx(i, m)];
      }
      const int k = gidx(i, j);
      div[k] = (dx + dy) / g.jac[static_cast<std::size_t>(k)];
    }
  }
}

void vorticity_sphere(const mesh::ElementGeom& g, const double* u1,
                      const double* u2, double* vort) {
  const auto& D = mesh::gll().deriv;
  // Covariant components: cov_i = g_ij u^j.
  double cov1[kNpp], cov2[kNpp];
  for (int k = 0; k < kNpp; ++k) {
    cov1[k] = g.g11[static_cast<std::size_t>(k)] * u1[k] +
              g.g12[static_cast<std::size_t>(k)] * u2[k];
    cov2[k] = g.g12[static_cast<std::size_t>(k)] * u1[k] +
              g.g22[static_cast<std::size_t>(k)] * u2[k];
  }
  for (int j = 0; j < kNp; ++j) {
    for (int i = 0; i < kNp; ++i) {
      double dx = 0.0, dy = 0.0;
      for (int m = 0; m < kNp; ++m) {
        dx += D[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)] *
              cov2[gidx(m, j)];
        dy += D[static_cast<std::size_t>(j)][static_cast<std::size_t>(m)] *
              cov1[gidx(i, m)];
      }
      const int k = gidx(i, j);
      vort[k] = (dx - dy) / g.jac[static_cast<std::size_t>(k)];
    }
  }
}

void laplace_sphere_wk(const mesh::ElementGeom& g, const double* s,
                       double* lap) {
  const auto& D = mesh::gll().deriv;
  const auto& w = mesh::gll().weights;
  // Contravariant flux F^a = J g^{ab} ds/dxi_b.
  double d1[kNpp], d2[kNpp], f1[kNpp], f2[kNpp];
  deriv_ref(s, d1, d2);
  for (int k = 0; k < kNpp; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    f1[k] = g.jac[sk] * (g.ginv11[sk] * d1[k] + g.ginv12[sk] * d2[k]);
    f2[k] = g.jac[sk] * (g.ginv12[sk] * d1[k] + g.ginv22[sk] * d2[k]);
  }
  // Weak divergence: lap(i,j) = -(1/(w_i w_j J)) *
  //   [ sum_m D[m][i] w_m w_j F1(m,j) + sum_m D[m][j] w_i w_m F2(i,m) ].
  for (int j = 0; j < kNp; ++j) {
    for (int i = 0; i < kNp; ++i) {
      double acc = 0.0;
      for (int m = 0; m < kNp; ++m) {
        acc += D[static_cast<std::size_t>(m)][static_cast<std::size_t>(i)] *
               w[static_cast<std::size_t>(m)] *
               w[static_cast<std::size_t>(j)] * f1[gidx(m, j)];
        acc += D[static_cast<std::size_t>(m)][static_cast<std::size_t>(j)] *
               w[static_cast<std::size_t>(i)] *
               w[static_cast<std::size_t>(m)] * f2[gidx(i, m)];
      }
      const int k = gidx(i, j);
      lap[k] = -acc / (w[static_cast<std::size_t>(i)] *
                       w[static_cast<std::size_t>(j)] *
                       g.jac[static_cast<std::size_t>(k)]);
    }
  }
}

void contra_to_cart(const mesh::ElementGeom& g, const double* u1,
                    const double* u2, double* ux, double* uy, double* uz) {
  for (int k = 0; k < kNpp; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    ux[k] = u1[k] * g.a1[0][sk] + u2[k] * g.a2[0][sk];
    uy[k] = u1[k] * g.a1[1][sk] + u2[k] * g.a2[1][sk];
    uz[k] = u1[k] * g.a1[2][sk] + u2[k] * g.a2[2][sk];
  }
}

void cart_to_contra(const mesh::ElementGeom& g, const double* ux,
                    const double* uy, const double* uz, double* u1,
                    double* u2) {
  for (int k = 0; k < kNpp; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    u1[k] = ux[k] * g.b1[0][sk] + uy[k] * g.b1[1][sk] + uz[k] * g.b1[2][sk];
    u2[k] = ux[k] * g.b2[0][sk] + uy[k] * g.b2[1][sk] + uz[k] * g.b2[2][sk];
  }
}

void coriolis_vorticity_term(const mesh::ElementGeom& g,
                             const double* absvort, const double* u1,
                             const double* u2, double* t1, double* t2) {
  double ux[kNpp], uy[kNpp], uz[kNpp];
  contra_to_cart(g, u1, u2, ux, uy, uz);
  const auto& r = g.rhat;
  double wx[kNpp], wy[kNpp], wz[kNpp];
  for (int k = 0; k < kNpp; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    // r_hat x U scaled by (zeta + f).
    wx[k] = absvort[k] * (r[1][sk] * uz[k] - r[2][sk] * uy[k]);
    wy[k] = absvort[k] * (r[2][sk] * ux[k] - r[0][sk] * uz[k]);
    wz[k] = absvort[k] * (r[0][sk] * uy[k] - r[1][sk] * ux[k]);
  }
  cart_to_contra(g, wx, wy, wz, t1, t2);
}

void dss_levels(const mesh::CubedSphere& m,
                std::span<double* const> elem_fields, int nlev) {
  const std::size_t acc_n =
      static_cast<std::size_t>(m.nnodes()) * static_cast<std::size_t>(nlev);
  ScratchArena& arena = ScratchArena::thread_local_arena();
  if (arena.capacity() < acc_n) arena.require(acc_n);
  ScratchArena::Frame frame(arena);
  std::span<double> acc = arena.alloc_zero(acc_n);
  const int nelem = m.nelem();
  for (int e = 0; e < nelem; ++e) {
    const auto& ids = m.nodes(e);
    const auto& g = m.geom(e);
    const double* f = elem_fields[static_cast<std::size_t>(e)];
    for (int lev = 0; lev < nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        acc[static_cast<std::size_t>(ids[static_cast<std::size_t>(k)]) *
                static_cast<std::size_t>(nlev) +
            static_cast<std::size_t>(lev)] +=
            g.mass[static_cast<std::size_t>(k)] * f[fidx(lev, k)];
      }
    }
  }
  for (int e = 0; e < nelem; ++e) {
    const auto& ids = m.nodes(e);
    const auto& g = m.geom(e);
    double* f = elem_fields[static_cast<std::size_t>(e)];
    for (int lev = 0; lev < nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        f[fidx(lev, k)] =
            acc[static_cast<std::size_t>(ids[static_cast<std::size_t>(k)]) *
                    static_cast<std::size_t>(nlev) +
                static_cast<std::size_t>(lev)] *
            g.rmass[static_cast<std::size_t>(k)];
      }
    }
  }
}

void dss_vector_levels(const mesh::CubedSphere& m,
                       std::span<double* const> u1,
                       std::span<double* const> u2, int nlev) {
  const int nelem = m.nelem();
  const std::size_t sn = static_cast<std::size_t>(nelem);
  const std::size_t fs = static_cast<std::size_t>(nlev) * kNpp;
  const std::size_t acc_n =
      static_cast<std::size_t>(m.nnodes()) * static_cast<std::size_t>(nlev);

  // Cartesian scratch per element, plus the nested dss_levels node
  // accumulator, all carved from the thread's arena.
  ScratchArena& arena = ScratchArena::thread_local_arena();
  if (arena.capacity() < 3 * sn * fs + acc_n ||
      arena.ptr_capacity() < 3 * sn) {
    arena.require(3 * sn * fs + acc_n, 3 * sn);
  }
  ScratchArena::Frame frame(arena);
  std::span<double> cx = arena.alloc(sn * fs), cy = arena.alloc(sn * fs),
                    cz = arena.alloc(sn * fs);
  std::span<double*> px = arena.alloc_ptrs(sn), py = arena.alloc_ptrs(sn),
                     pz = arena.alloc_ptrs(sn);
  for (std::size_t e = 0; e < sn; ++e) {
    px[e] = cx.data() + e * fs;
    py[e] = cy.data() + e * fs;
    pz[e] = cz.data() + e * fs;
  }
  for (int e = 0; e < nelem; ++e) {
    const std::size_t se = static_cast<std::size_t>(e);
    for (int lev = 0; lev < nlev; ++lev) {
      contra_to_cart(m.geom(e), u1[se] + fidx(lev, 0), u2[se] + fidx(lev, 0),
                     px[se] + fidx(lev, 0), py[se] + fidx(lev, 0),
                     pz[se] + fidx(lev, 0));
    }
  }
  dss_levels(m, px, nlev);
  dss_levels(m, py, nlev);
  dss_levels(m, pz, nlev);
  for (int e = 0; e < nelem; ++e) {
    const std::size_t se = static_cast<std::size_t>(e);
    for (int lev = 0; lev < nlev; ++lev) {
      cart_to_contra(m.geom(e), px[se] + fidx(lev, 0), py[se] + fidx(lev, 0),
                     pz[se] + fidx(lev, 0), u1[se] + fidx(lev, 0),
                     u2[se] + fidx(lev, 0));
    }
  }
}

void column_pressure(int nlev, const double* dp, double* p_mid) {
  double run[kNpp];
  for (int g = 0; g < kNpp; ++g) run[g] = kPtop;
  for (int lev = 0; lev < nlev; ++lev) {
    for (int g = 0; g < kNpp; ++g) {
      const double d = dp[fidx(lev, g)];
      p_mid[fidx(lev, g)] = run[g] + 0.5 * d;
      run[g] += d;
    }
  }
}

void column_geopotential(int nlev, const double* T, const double* dp,
                         const double* p_mid, const double* phis,
                         double* phi_mid) {
  double run[kNpp];
  for (int g = 0; g < kNpp; ++g) run[g] = phis[g];
  for (int lev = nlev - 1; lev >= 0; --lev) {
    for (int g = 0; g < kNpp; ++g) {
      const std::size_t k = fidx(lev, g);
      const double half = 0.5 * kRgas * T[k] * dp[k] / p_mid[k];
      phi_mid[k] = run[g] + half;
      run[g] += 2.0 * half;
    }
  }
}

void column_omega(int nlev, const double* divdp, double* omega) {
  double run[kNpp];
  for (int g = 0; g < kNpp; ++g) run[g] = 0.0;
  for (int lev = 0; lev < nlev; ++lev) {
    for (int g = 0; g < kNpp; ++g) {
      const std::size_t k = fidx(lev, g);
      omega[k] = -(run[g] + 0.5 * divdp[k]);
      run[g] += divdp[k];
    }
  }
}

void element_rhs(const mesh::ElementGeom& g, const Dims& d,
                 const ElementState& eval, ElementTend& tend) {
  const int nlev = d.nlev;
  std::vector<double> p_mid(d.field_size()), phi_mid(d.field_size()),
      divdp(d.field_size()), omega(d.field_size());

  column_pressure(nlev, eval.dp.data(), p_mid.data());

  std::vector<double> tv;
  const double* t_for_phi = eval.T.data();
  if (d.moist && d.qsize > 0) {
    tv.resize(d.field_size());
    auto q0 = eval.q(0, d);
    for (std::size_t f = 0; f < d.field_size(); ++f) {
      tv[f] = eval.T[f] * (1.0 + kZvir * q0[f] / eval.dp[f]);
    }
    t_for_phi = tv.data();
  }
  column_geopotential(nlev, t_for_phi, eval.dp.data(), p_mid.data(),
                      eval.phis.data(), phi_mid.data());

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
    for (int k = 0; k < kNpp; ++k) {
      absvort[k] = vort[k] + g.coriolis[static_cast<std::size_t>(k)];
      const double ke =
          0.5 * (g.g11[static_cast<std::size_t>(k)] * u1[k] * u1[k] +
                 2.0 * g.g12[static_cast<std::size_t>(k)] * u1[k] * u2[k] +
                 g.g22[static_cast<std::size_t>(k)] * u2[k] * u2[k]);
      energy[k] = ke + phim[k];
    }
    gradient_sphere(g, energy, gE1, gE2);
    gradient_covariant(pm, d1p, d2p);
    coriolis_vorticity_term(g, absvort, u1, u2, cor1, cor2);
    gradient_covariant(T, d1T, d2T);

    for (int k = 0; k < kNpp; ++k) {
      flux1[k] = dp[k] * u1[k];
      flux2[k] = dp[k] * u2[k];
    }
    divergence_sphere(g, flux1, flux2, divdp.data() + fidx(lev, 0));

    double* tu1 = tend.u1.data() + fidx(lev, 0);
    double* tu2 = tend.u2.data() + fidx(lev, 0);
    double* tT = tend.T.data() + fidx(lev, 0);
    double* tdp = tend.dp.data() + fidx(lev, 0);
    for (int k = 0; k < kNpp; ++k) {
      const double rtp = kRgas * Tv[k] / pm[k];
      const double gp1 = g.ginv11[static_cast<std::size_t>(k)] * d1p[k] +
                         g.ginv12[static_cast<std::size_t>(k)] * d2p[k];
      const double gp2 = g.ginv12[static_cast<std::size_t>(k)] * d1p[k] +
                         g.ginv22[static_cast<std::size_t>(k)] * d2p[k];
      tu1[k] = -cor1[k] - gE1[k] - rtp * gp1;
      tu2[k] = -cor2[k] - gE2[k] - rtp * gp2;
      tT[k] = -(u1[k] * d1T[k] + u2[k] * d2T[k]);
      tdp[k] = -divdp[fidx(lev, k)];
    }
  }

  column_omega(nlev, divdp.data(), omega.data());
  for (int lev = 0; lev < nlev; ++lev) {
    for (int k = 0; k < kNpp; ++k) {
      const std::size_t f = fidx(lev, k);
      tend.T[f] += kKappa * t_for_phi[f] * omega[f] / p_mid[f];
    }
  }
}

void compute_and_apply_rhs(const mesh::CubedSphere& m, const Dims& d,
                           const State& base, const State& eval, double dt,
                           State& out) {
  assert(base.size() == static_cast<std::size_t>(m.nelem()));
  assert(eval.size() == base.size() && out.size() == base.size());

  ElementTend tend(d);
  for (int e = 0; e < m.nelem(); ++e) {
    const std::size_t se = static_cast<std::size_t>(e);
    element_rhs(m.geom(e), d, eval[se], tend);
    ElementState& o = out[se];
    const ElementState& b = base[se];
    std::span<double> ou1 = o.u1.mutable_span(), ou2 = o.u2.mutable_span(),
                      oT = o.T.mutable_span(), odp = o.dp.mutable_span();
    for (std::size_t f = 0; f < d.field_size(); ++f) {
      ou1[f] = b.u1[f] + dt * tend.u1[f];
      ou2[f] = b.u2[f] + dt * tend.u2[f];
      oT[f] = b.T[f] + dt * tend.T[f];
      odp[f] = b.dp[f] + dt * tend.dp[f];
    }
    o.phis = b.phis;
  }

  auto u1p = field_ptrs(out, &ElementState::u1);
  auto u2p = field_ptrs(out, &ElementState::u2);
  auto Tp = field_ptrs(out, &ElementState::T);
  auto dpp = field_ptrs(out, &ElementState::dp);
  dss_vector_levels(m, u1p, u2p, d.nlev);
  dss_levels(m, Tp, d.nlev);
  dss_levels(m, dpp, d.nlev);
}

namespace {

void monotone_slopes(std::span<const double> x, std::span<const double> y,
                     std::span<double> m) {
  const std::size_t n = x.size();
  std::vector<double> delta(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    delta[i] = (y[i + 1] - y[i]) / (x[i + 1] - x[i]);
  }
  m[0] = delta[0];
  m[n - 1] = delta[n - 2];
  for (std::size_t i = 1; i + 1 < n; ++i) {
    m[i] = (delta[i - 1] * delta[i] <= 0.0)
               ? 0.0
               : 0.5 * (delta[i - 1] + delta[i]);
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (delta[i] == 0.0) {
      m[i] = 0.0;
      m[i + 1] = 0.0;
      continue;
    }
    const double a = m[i] / delta[i];
    const double b = m[i + 1] / delta[i];
    const double s = a * a + b * b;
    if (s > 9.0) {
      const double tau = 3.0 / std::sqrt(s);
      m[i] = tau * a * delta[i];
      m[i + 1] = tau * b * delta[i];
    }
  }
}

double eval_hermite(std::span<const double> x, std::span<const double> y,
                    std::span<const double> m, double xq) {
  const std::size_t n = x.size();
  if (xq <= x[0]) return y[0];
  if (xq >= x[n - 1]) return y[n - 1];
  std::size_t lo =
      static_cast<std::size_t>(std::upper_bound(x.begin(), x.end(), xq) -
                               x.begin()) -
      1;
  const double h = x[lo + 1] - x[lo];
  const double t = (xq - x[lo]) / h;
  const double t2 = t * t, t3 = t2 * t;
  const double h00 = 2 * t3 - 3 * t2 + 1;
  const double h10 = t3 - 2 * t2 + t;
  const double h01 = -2 * t3 + 3 * t2;
  const double h11 = t3 - t2;
  return h00 * y[lo] + h10 * h * m[lo] + h01 * y[lo + 1] + h11 * h * m[lo + 1];
}

}  // namespace

void remap_column(std::span<const double> src_dp,
                  std::span<const double> tgt_dp, std::span<double> q) {
  const std::size_t n = src_dp.size();
  assert(tgt_dp.size() == n && q.size() == n);

  std::vector<double> xs(n + 1), ys(n + 1), slopes(n + 1), xt(n + 1);
  xs[0] = 0.0;
  ys[0] = 0.0;
  xt[0] = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    xs[k + 1] = xs[k] + src_dp[k];
    ys[k + 1] = ys[k] + q[k] * src_dp[k];
    xt[k + 1] = xt[k] + tgt_dp[k];
  }
  assert(std::abs(xs[n] - xt[n]) <= 1e-8 * std::max(1.0, std::abs(xs[n])));

  monotone_slopes(xs, ys, slopes);
  double prev = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double cur =
        (k + 1 == n) ? ys[n] : eval_hermite(xs, ys, slopes, xt[k + 1]);
    q[k] = (cur - prev) / tgt_dp[k];
    prev = cur;
  }
}

void vertical_remap_local(const Dims& d, State& s) {
  const HybridCoord hc = HybridCoord::uniform(d.nlev);
  const int nlev = d.nlev;
  std::vector<double> src(static_cast<std::size_t>(nlev)),
      tgt(static_cast<std::size_t>(nlev)), col(static_cast<std::size_t>(nlev));

  for (std::size_t e = 0; e < s.size(); ++e) {
    ElementState& es = s[e];
    std::span<double> fu1 = es.u1.mutable_span(), fu2 = es.u2.mutable_span(),
                      fT = es.T.mutable_span(), fdp = es.dp.mutable_span();
    for (int k = 0; k < kNpp; ++k) {
      double ps = kPtop;
      for (int lev = 0; lev < nlev; ++lev) {
        src[static_cast<std::size_t>(lev)] = es.dp[fidx(lev, k)];
        ps += es.dp[fidx(lev, k)];
      }
      for (int lev = 0; lev < nlev; ++lev) {
        tgt[static_cast<std::size_t>(lev)] = hc.dp_ref(lev, ps);
      }

      auto remap_field = [&](std::span<double> field) {
        for (int lev = 0; lev < nlev; ++lev) {
          col[static_cast<std::size_t>(lev)] = field[fidx(lev, k)];
        }
        remap_column(src, tgt, col);
        for (int lev = 0; lev < nlev; ++lev) {
          field[fidx(lev, k)] = col[static_cast<std::size_t>(lev)];
        }
      };
      remap_field(fu1);
      remap_field(fu2);
      remap_field(fT);
      for (int q = 0; q < d.qsize; ++q) {
        auto qf = es.q_mut(q, d);
        for (int lev = 0; lev < nlev; ++lev) {
          col[static_cast<std::size_t>(lev)] =
              qf[fidx(lev, k)] / src[static_cast<std::size_t>(lev)];
        }
        remap_column(src, tgt, col);
        for (int lev = 0; lev < nlev; ++lev) {
          qf[fidx(lev, k)] = col[static_cast<std::size_t>(lev)] *
                             tgt[static_cast<std::size_t>(lev)];
        }
      }
      for (int lev = 0; lev < nlev; ++lev) {
        fdp[fidx(lev, k)] = tgt[static_cast<std::size_t>(lev)];
      }
    }
  }
}

namespace {

void element_tracer_rhs(const mesh::ElementGeom& g, const Dims& d,
                        const ElementState& es,
                        std::span<const double> qdp, std::span<double> rhs) {
  double f1[kNpp], f2[kNpp];
  for (int lev = 0; lev < d.nlev; ++lev) {
    const double* u1 = es.u1.data() + fidx(lev, 0);
    const double* u2 = es.u2.data() + fidx(lev, 0);
    const double* q = qdp.data() + fidx(lev, 0);
    for (int k = 0; k < kNpp; ++k) {
      f1[k] = u1[k] * q[k];
      f2[k] = u2[k] * q[k];
    }
    divergence_sphere(g, f1, f2, rhs.data() + fidx(lev, 0));
    for (int k = 0; k < kNpp; ++k) {
      rhs[fidx(lev, k)] = -rhs[fidx(lev, k)];
    }
  }
}

}  // namespace

void euler_step(const mesh::CubedSphere& m, const Dims& d, State& s,
                double dt, bool limit) {
  const int nelem = m.nelem();
  const std::size_t fs = d.field_size();

  // Per-tracer stage buffers (q0 = start of step, qs = working stage).
  std::vector<std::vector<double>> q0(static_cast<std::size_t>(nelem)),
      qs(static_cast<std::size_t>(nelem)),
      rhs(static_cast<std::size_t>(nelem));
  for (int e = 0; e < nelem; ++e) {
    q0[static_cast<std::size_t>(e)].resize(fs);
    qs[static_cast<std::size_t>(e)].resize(fs);
    rhs[static_cast<std::size_t>(e)].resize(fs);
  }
  std::vector<double*> qs_ptrs(static_cast<std::size_t>(nelem));
  for (int e = 0; e < nelem; ++e) {
    qs_ptrs[static_cast<std::size_t>(e)] =
        qs[static_cast<std::size_t>(e)].data();
  }

  for (int q = 0; q < d.qsize; ++q) {
    for (int e = 0; e < nelem; ++e) {
      const std::size_t se = static_cast<std::size_t>(e);
      auto src = s[se].q(q, d);
      std::copy(src.begin(), src.end(), q0[se].begin());
      std::copy(src.begin(), src.end(), qs[se].begin());
    }

    // SSP-RK3 (Shu-Osher): each stage = Euler step + convex combination,
    // with DSS (and optionally the limiter) after every stage.
    const double stage_w[3][2] = {
        {0.0, 1.0},              // q1 = q0 + dt L(q0)
        {0.75, 0.25},            // q2 = 3/4 q0 + 1/4 (q1 + dt L(q1))
        {1.0 / 3.0, 2.0 / 3.0}}; // q3 = 1/3 q0 + 2/3 (q2 + dt L(q2))
    for (int stage = 0; stage < 3; ++stage) {
      for (int e = 0; e < nelem; ++e) {
        const std::size_t se = static_cast<std::size_t>(e);
        // Qualified: homme::element_tracer_rhs is the vectorized twin.
        ref::element_tracer_rhs(m.geom(e), d, s[se], qs[se], rhs[se]);
        const double a = stage_w[stage][0];
        const double b = stage_w[stage][1];
        for (std::size_t f = 0; f < fs; ++f) {
          qs[se][f] = a * q0[se][f] + b * (qs[se][f] + dt * rhs[se][f]);
        }
      }
      dss_levels(m, qs_ptrs, d.nlev);
      if (limit) {
        for (int e = 0; e < nelem; ++e) {
          positivity_limiter(m.geom(e), d.nlev,
                             qs[static_cast<std::size_t>(e)]);
        }
      }
    }

    for (int e = 0; e < nelem; ++e) {
      const std::size_t se = static_cast<std::size_t>(e);
      auto dst = s[se].q_mut(q, d);
      std::copy(qs[se].begin(), qs[se].end(), dst.begin());
    }
  }
}

}  // namespace homme::ref
