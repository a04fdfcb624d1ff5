#include "physics/modules.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "homme/dims.hpp"
#include "homme/vpack.hpp"

namespace phys {

using homme::any;
using homme::kCp;
using homme::kGravity;
using homme::kKappa;
using homme::kP0;
using homme::kRgas;
using homme::max;
using homme::min;
using homme::per_lane;
using homme::select;
using homme::vpack;

namespace {

// -- deciding a branch without the library call -------------------------
// Each scheme below takes a branch on the result of a libm call. Before
// the call it runs a cheap bound, proven in its comment, that settles the
// branch in most lanes. Only the lanes the bound leaves open make the
// call, so every lane has the bits of making the call in every lane
// (tests/test_physics.cpp keeps those straightforward forms as oracles).
// u below is 2^-53, the unit roundoff.

/// std::fma lane by lane: a * b + c, rounded once.
double fused(double a, double b, double c) { return std::fma(a, b, c); }
vpack fused(const vpack& a, const vpack& b, const vpack& c) {
  vpack r;
  for (int i = 0; i < vpack::width; ++i) {
    r.v[i] = std::fma(a.v[i], b.v[i], c.v[i]);
  }
  return r;
}

/// \p value where \p settled is set, else f(x): one scalar call per lane
/// the bound left open.
template <class F>
double unless_settled(bool settled, double value, F f, double x) {
  return settled ? value : f(x);
}
template <class F>
vpack unless_settled(const vpack::mask& settled, vpack value, F f,
                     const vpack& x) {
  for (int i = 0; i < vpack::width; ++i) {
    if (!settled[i]) value.v[i] = f(x.v[i]);
  }
  return value;
}

/// Whether \p x lies in [1e-30, 1e30], the range where the bounds' sums
/// and products of temperatures and pressures neither under- nor
/// overflow; false for NaN.
template <class T>
auto sane(const T& x) {
  return (x >= 1e-30) & (x <= 1e30);
}

/// The exponent of Bolton's formula at \p t.
template <class T>
T bolton_exponent(const T& t) {
  return 17.67 * (t - 273.15) / (t - 29.65);
}

/// Bolton (1980), lane by lane.
template <class T>
T vapor_pressure(T t) {
  return 611.2 *
         per_lane([](double x) { return std::exp(x); }, bolton_exponent(t));
}

/// The saturation mixing ratio at pressure \p p, given the saturation
/// vapor pressure \p es_t at the temperature.
template <class T>
T mixing_ratio(T es_t, T p) {
  const T es = min(es_t, 0.5 * p);
  return kEps * es / (p - (1.0 - kEps) * es);
}

/// A lower bound of what exp(x) returns, for x in [-50, 50], in 20
/// squarings: within 1.5e-4 of e^x at x = -18 (150 K), 1.5e-6 at 300 K.
/// With N = 2^20, (1 + x/N)^N <= e^x for x > -N, because ln(1 + y) <= y.
/// Each rounding (the sum, the squarings, the margin and its constant)
/// multiplies by at most 1 + u, and a squaring doubles the factor it
/// squares, so the result is at most
/// e^x (1 - 1e-9) (1 + u)^(2N + 1) < e^x (1 - 7e-10): glibc's exp, whose
/// error is below 1 ulp (at most 2u relative), returns no less.
template <class T>
T exp_below(const T& x) {
  T r = 1.0 + x * 0x1p-20;
  for (int i = 0; i < 20; ++i) r = r * r;
  return r * (1.0 - 1e-9);
}

/// ulp(x) for a normal x of at least 2^-900 that is not a power of two;
/// 0 for every other x (zero, subnormal, tiny, a power of two, infinite,
/// NaN), which no bound below accepts.
double inner_ulp(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  const std::uint64_t exp_bits = bits & 0x7ff0000000000000u;
  if ((bits & 0x000fffffffffffffu) == 0 ||
      exp_bits < (std::uint64_t{1023 - 900} << 52) ||
      exp_bits == 0x7ff0000000000000u) {
    return 0.0;
  }
  double pow2;  // 2^e for x in [2^e, 2^(e+1))
  std::memcpy(&pow2, &exp_bits, sizeof pow2);
  return pow2 * 0x1p-52;
}

// Dry adjustment's bound. For p_a, p_b > 0 (level a above b),
//   (p_b/p_a)^kappa >= 1 + kappa ln(p_b/p_a) >= 1 + kappa (1 - p_a/p_b),
// because e^y >= 1 + y and ln r >= 1 - 1/r. So
//   t_b p_b <= t_a (p_b + kappa (p_b - p_a)) (1 - 1e-10)            (*)
// gives t_b <= t_a (p_b/p_a)^kappa (1 - 1e-10): theta_b lies below theta_a
// by a relative 1e-10. Rounded, with t and p in [1e-30, 1e30] (sane):
// - S = p_b + kappa (p_b - p_a) errs by at most u (p_b + 3 kappa
//   |p_b - p_a|) (1 + u). That is within 4u of S when p_a <= 2 p_b, where
//   S >= (1 - kappa) p_b, and below the gap p_b (p_b/p_a)^kappa - S >=
//   0.3 kappa (p_a - p_b) beyond; so S as computed is at most
//   p_b (p_b/p_a)^kappa (1 + 4u).
// - (*) as computed then gives t_b <= t_a (p_b/p_a)^kappa (1 - 1e-10)
//   (1 + 8u).
// - The computed theta = t / pow(p/p0, kappa) is within 4u of t / (p/p0)^kappa
//   (the quotient p/p0 adds kappa u, pow's error below 1 ulp 2u, the
//   divide u), and its threshold theta_a (1 + 1e-12) rounds twice more.
// So theta_b as computed is at most theta_a (1 - 1e-10) (1 + 12u), below
// the computed threshold, at least theta_a (1 + 1e-12) (1 - 7u): the mask
// `unstable` is false in the lane, which needs no pow.

/// Whether levels a (above) and b (below) are stable by the bound above,
/// lane by lane. NaN, non-positive and extreme inputs leave a lane open.
template <class T>
auto stable_by_bound(const T& ta, const T& tb, const T& pa, const T& pb) {
  return sane(ta) & sane(tb) & sane(pa) & sane(pb) &
         (tb * pb <= ta * (pb + kKappa * (pb - pa)) * (1.0 - 1e-10));
}

}  // namespace

double saturation_vapor_pressure(double t) { return vapor_pressure(t); }

double saturation_mixing_ratio(double t, double p) {
  return mixing_ratio(vapor_pressure(t), p);
}

Surface surface_at(double lat, double sst) {
  return {sst, kStefan * std::pow(sst, 4), saturation_vapor_pressure(sst),
          std::cos(lat)};
}

// Emission's bound. Two fma products give the rounding errors of
// s = t*t and b = s*s exactly, so t^4 = b + e + s_err^2 with
// e = b_err + 2 s s_err; e's two roundings and the dropped s_err^2 stay
// below 6u^2 t^4, under 1e-15 ulp(t^4). Fast2Sum (|e| < |b|) rounds b + e
// to r and gives b + e - r exactly. When r is a normal double of at least
// 2^-900 that is not a power of two, and |b + e - r| < 0.45 ulp(r), t^4
// lies in r's binade within 0.45 ulp of r, so every other double is more
// than 0.54 ulp from it. glibc's pow (the implementation since 2.28)
// errs by at most 0.54 ulp (sysdeps/ieee754/dbl-64/e_pow.c), so pow(t, 4)
// returns r. The other lanes, about one temperature in ten plus binade
// edges and non-finite or extreme t, call pow. Physics.EmissionMatchesPow
// checks the claim on the platform.
template <class T>
T blackbody_emission(T t) {
  const T s = t * t;
  const T s_err = fused(t, t, -s);
  const T b = s * s;
  const T b_err = fused(s, s, -b);
  const T e = b_err + 2.0 * s * s_err;
  const T r = b + e;
  const T miss = e - (r - b);
  const T tol = 0.45 * per_lane(inner_ulp, r);
  const auto settled = (miss < tol) & (-tol < miss);
  return kStefan *
         unless_settled(settled, r,
                        [](double x) { return std::pow(x, 4); }, t);
}

template <class T>
void gray_radiation(const RadiationConfig& cfg, BasicColumn<T>& c, double dt,
                    BasicColumnDiag<T>& diag) {
  using L = homme::Lanes<T>;
  const int n = c.nlev;
  const std::size_t sn = static_cast<std::size_t>(n);
  // Per-level optical depth, transmissivity and blackbody emission, then
  // the two flux profiles on the n+1 interfaces: 5n+2 values of c.work.
  T* dtau = c.work.data();
  T* tr = dtau + sn;
  T* emit = tr + sn;
  T* up = emit + sn;
  T* down = up + sn + 1;

  // Gray optical depth grows quadratically toward the surface (a crude
  // water-vapor profile): tau(p) = tau0 (p/ps)^2.
  T p_int = L::fill(homme::kPtop);
  T tau_prev = cfg.tau0 * (p_int / c.ps) * (p_int / c.ps);
  for (int k = 0; k < n; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    p_int += c.dp[sk];
    const T tau = cfg.tau0 * (p_int / c.ps) * (p_int / c.ps);
    dtau[sk] = tau - tau_prev;
    tau_prev = tau;
    tr[sk] = per_lane([](double x) { return std::exp(x); }, -dtau[sk]);
    emit[sk] = blackbody_emission(c.t[sk]);
  }

  down[0] = L::fill(0.0);
  for (std::size_t k = 0; k < sn; ++k) {
    down[k + 1] = down[k] * tr[k] + emit[k] * (1.0 - tr[k]);
  }
  up[sn] = c.sfc.emit;
  for (std::size_t k = sn; k-- > 0;) {
    up[k] = up[k + 1] * tr[k] + emit[k] * (1.0 - tr[k]);
  }
  diag.olr = up[0];

  // Annual-mean insolation profile; the absorbed-in-atmosphere part is
  // deposited proportionally to optical depth.
  const T cosl = c.sfc.cos_lat;
  const T insol = cfg.solar0 * (0.25 + 0.75 * cosl * cosl);
  const T sw_col = insol * (1.0 - cfg.albedo) * cfg.sw_abs_frac;

  T heat_col = L::fill(0.0);
  for (int k = 0; k < n; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    const T net =
        (up[sk + 1] - down[sk + 1]) - (up[sk] - down[sk]);  // W/m^2 converged
    const T sw = sw_col * dtau[sk] / std::max(1e-12, cfg.tau0);
    const T heating = net + sw;
    c.t[sk] += dt * heating * kGravity / (kCp * c.dp[sk]);
    heat_col += heating;
  }
  diag.net_heating += heat_col;
}

template <class T>
void dry_adjustment(BasicColumn<T>& c, int max_iter) {
  using L = homme::Lanes<T>;
  const int n = c.nlev;
  // Each level's Exner function (p/p0)^kappa, computed on its first use by
  // a pair the bound leaves open. pow returns no negative value, so a
  // negative lane 0 marks a level not computed yet; p does not change
  // here, so every value used has the bits of computing them all first.
  T* exner = c.work.data();
  std::fill(exner, exner + n, L::fill(-1.0));
  const auto exner_at = [&](std::size_t k) {
    if (L::lane(exner[k], 0) < 0.0) {
      exner[k] = per_lane([](double x) { return std::pow(x, kKappa); },
                          c.p[k] / kP0);
    }
    return exner[k];
  };
  for (int iter = 0; iter < max_iter; ++iter) {
    bool adjusted = false;
    for (int k = 0; k + 1 < n; ++k) {  // k above, k+1 below
      const std::size_t a = static_cast<std::size_t>(k);
      const std::size_t b = a + 1;
      if (!any(!stable_by_bound(c.t[a], c.t[b], c.p[a], c.p[b]))) continue;
      const T theta_a = c.t[a] / exner_at(a);
      const T theta_b = c.t[b] / exner_at(b);
      const auto unstable = theta_b > theta_a * (1.0 + 1e-12);
      if (!any(unstable)) continue;
      // Unstable: mix to a common potential temperature conserving
      // enthalpy cp*(T_a dp_a + T_b dp_b).
      const T denom = exner[a] * c.dp[a] + exner[b] * c.dp[b];
      const T theta = (c.t[a] * c.dp[a] + c.t[b] * c.dp[b]) / denom;
      c.t[a] = select(unstable, theta * exner[a], c.t[a]);
      c.t[b] = select(unstable, theta * exner[b], c.t[b]);
      // Homogenize moisture too (simple convective transport).
      const T qbar =
          (c.q[a] * c.dp[a] + c.q[b] * c.dp[b]) / (c.dp[a] + c.dp[b]);
      c.q[a] = select(unstable, qbar, c.q[a]);
      c.q[b] = select(unstable, qbar, c.q[b]);
      adjusted = true;
    }
    if (!adjusted) break;
  }
}

// Condensation's bound. For p > 0 every rounded step of
// mixing_ratio(611.2 * E, p) is non-decreasing in E: a product of positive
// values, a min, a difference p - (1 - eps) s that stays above 0.8 p, and
// a quotient of positive values. exp_below(x) is at most what exp(x)
// returns, so for x in [-50, 50] a q at most
// mixing_ratio(611.2 * exp_below(x), p) is at most the qs that exp gives:
// `go` is false in the lane, which needs no exp. A NaN q, a non-positive
// or NaN p and an x outside [-50, 50] leave the lane open.
template <class T>
void large_scale_condensation(BasicColumn<T>& c, double dt,
                              BasicColumnDiag<T>& diag) {
  for (int k = 0; k < c.nlev; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    const T x = bolton_exponent(c.t[sk]);
    const T low = exp_below(x);
    const auto settled = (x >= -50.0) & (x <= 50.0) & (c.p[sk] > 0.0) &
                         (c.q[sk] <= mixing_ratio(611.2 * low, c.p[sk]));
    if (!any(!settled)) continue;
    // A settled lane's qs comes from low, which keeps its go false.
    const T qs = mixing_ratio(
        611.2 * unless_settled(settled, low,
                               [](double y) { return std::exp(y); }, x),
        c.p[sk]);
    // Subsaturated (q <= qs) lanes keep their state; a NaN proceeds.
    const auto go = !(c.q[sk] <= qs);
    if (!any(go)) continue;
    const T dqs_dt = qs * kLv / (kRv * c.t[sk] * c.t[sk]);
    const T gamma = (kLv / kCp) * dqs_dt;
    const T dq = (c.q[sk] - qs) / (1.0 + gamma);
    c.q[sk] = select(go, c.q[sk] - dq, c.q[sk]);
    c.t[sk] = select(go, c.t[sk] + (kLv / kCp) * dq, c.t[sk]);
    diag.precip = select(go, diag.precip + dq * c.dp[sk] / (kGravity * dt),
                         diag.precip);
  }
}

template <class T>
void surface_and_pbl(const SurfaceConfig& cfg, BasicColumn<T>& c, double dt,
                     BasicColumnDiag<T>& diag) {
  using L = homme::Lanes<T>;
  const int n = c.nlev;
  const std::size_t bot = static_cast<std::size_t>(n - 1);

  // Bulk surface fluxes into the lowest layer.
  const T rho = c.ps / (kRgas * c.t[bot]);
  const T wind = max(cfg.min_wind,
                     per_lane([](double x, double y) { return std::hypot(x, y); },
                              c.u[bot], c.v[bot]));
  const T ch = rho * cfg.c_drag * wind;
  const T shf = ch * kCp * (c.sfc.sst - c.t[bot]);
  const T qs_sfc = mixing_ratio(c.sfc.es, c.ps);
  const T lhf = max(0.0, ch * kLv * (qs_sfc - c.q[bot]));
  c.t[bot] += dt * shf * kGravity / (kCp * c.dp[bot]);
  c.q[bot] += dt * (lhf / kLv) * kGravity / c.dp[bot];
  // Implicit momentum drag.
  const T drag = ch * kGravity * dt / c.dp[bot];
  c.u[bot] /= (1.0 + drag);
  c.v[bot] /= (1.0 + drag);
  diag.shf += shf;
  diag.lhf += lhf;

  // Implicit vertical diffusion over the PBL depth. In pressure
  // coordinates d/dt X = g^2 d/dp (rho^2 K dX/dp). Interface
  // coefficients (n+1), then the tridiagonal system's eliminated form
  // (multipliers w, modified diagonal b, super-diagonal cc; n each):
  // 4n+1 values of c.work.
  const std::size_t sn = static_cast<std::size_t>(n);
  T* kfac = c.work.data();
  T* w = kfac + sn + 1;
  T* b = w + sn;
  T* cc = b + sn;
  std::fill(kfac, kfac + sn + 1, L::fill(0.0));
  for (int k = 1; k < n; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    const T p_int = 0.5 * (c.p[sk - 1] + c.p[sk]);
    // Interfaces above the mixing depth keep kfac at 0.
    const auto mixed = !(p_int < c.ps - cfg.pbl_depth_pa);
    if (!any(mixed)) continue;
    const T rho_i = p_int / (kRgas * 0.5 * (c.t[sk - 1] + c.t[sk]));
    const T dpi = c.p[sk] - c.p[sk - 1];
    kfac[sk] = select(
        mixed, kGravity * kGravity * rho_i * rho_i * cfg.k_pbl / dpi,
        kfac[sk]);
  }

  // t, q, u and v share one matrix (sub-diagonal -up, diagonal
  // 1+up+dn, super-diagonal -dn), so the Thomas forward elimination of
  // its coefficients runs once.
  for (std::size_t k = 0; k < sn; ++k) {
    const T up = kfac[k] * dt / c.dp[k];
    const T dn = kfac[k + 1] * dt / c.dp[k];
    cc[k] = -dn;
    b[k] = 1.0 + up + dn;
    if (k > 0) {
      w[k] = -up / b[k - 1];
      b[k] -= w[k] * cc[k - 1];
    }
  }
  for (T* x : {c.t.data(), c.q.data(), c.u.data(), c.v.data()}) {
    for (std::size_t i = 1; i < sn; ++i) x[i] -= w[i] * x[i - 1];
    x[sn - 1] /= b[sn - 1];
    for (std::size_t i = sn - 1; i-- > 0;) {
      x[i] = (x[i] - cc[i] * x[i + 1]) / b[i];
    }
  }
}

// One column (the reference form, accel's ports and the tests) and one
// column per lane (PhysicsDriver).
template double blackbody_emission(double);
template vpack blackbody_emission(vpack);
template void gray_radiation(const RadiationConfig&, Column&, double,
                             ColumnDiag&);
template void gray_radiation(const RadiationConfig&, BasicColumn<vpack>&,
                             double, BasicColumnDiag<vpack>&);
template void dry_adjustment(Column&, int);
template void dry_adjustment(BasicColumn<vpack>&, int);
template void large_scale_condensation(Column&, double, ColumnDiag&);
template void large_scale_condensation(BasicColumn<vpack>&, double,
                                       BasicColumnDiag<vpack>&);
template void surface_and_pbl(const SurfaceConfig&, Column&, double,
                              ColumnDiag&);
template void surface_and_pbl(const SurfaceConfig&, BasicColumn<vpack>&,
                              double, BasicColumnDiag<vpack>&);

double column_moist_enthalpy(const Column& c) {
  double s = 0.0;
  for (int k = 0; k < c.nlev; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    s += (kCp * c.t[sk] + kLv * c.q[sk]) * c.dp[sk];
  }
  return s;
}

}  // namespace phys
