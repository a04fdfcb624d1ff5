#include "physics/modules.hpp"

#include <algorithm>
#include <cmath>

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

/// Bolton (1980), lane by lane.
template <class T>
T vapor_pressure(T t) {
  return 611.2 * per_lane([](double x) { return std::exp(x); },
                          17.67 * (t - 273.15) / (t - 29.65));
}

/// The saturation mixing ratio at pressure \p p, given the saturation
/// vapor pressure \p es_t at the temperature.
template <class T>
T mixing_ratio(T es_t, T p) {
  const T es = min(es_t, 0.5 * p);
  return kEps * es / (p - (1.0 - kEps) * es);
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
    emit[sk] =
        kStefan * per_lane([](double x) { return std::pow(x, 4); }, c.t[sk]);
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
  const int n = c.nlev;
  T* exner = c.work.data();
  for (int k = 0; k < n; ++k) {
    exner[static_cast<std::size_t>(k)] =
        per_lane([](double x) { return std::pow(x, kKappa); },
                 c.p[static_cast<std::size_t>(k)] / kP0);
  }
  for (int iter = 0; iter < max_iter; ++iter) {
    bool adjusted = false;
    for (int k = 0; k + 1 < n; ++k) {  // k above, k+1 below
      const std::size_t a = static_cast<std::size_t>(k);
      const std::size_t b = a + 1;
      const T theta_a = c.t[a] / exner[a];
      const T theta_b = c.t[b] / exner[b];
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

template <class T>
void large_scale_condensation(BasicColumn<T>& c, double dt,
                              BasicColumnDiag<T>& diag) {
  for (int k = 0; k < c.nlev; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    const T qs = mixing_ratio(vapor_pressure(c.t[sk]), c.p[sk]);
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
