#include "physics/modules.hpp"

#include <algorithm>
#include <cmath>

#include "homme/dims.hpp"

namespace phys {

using homme::kCp;
using homme::kGravity;
using homme::kKappa;
using homme::kP0;
using homme::kRgas;

double saturation_vapor_pressure(double t) {
  // Bolton (1980).
  return 611.2 * std::exp(17.67 * (t - 273.15) / (t - 29.65));
}

double saturation_mixing_ratio(double t, double p) {
  const double es = std::min(saturation_vapor_pressure(t), 0.5 * p);
  return kEps * es / (p - (1.0 - kEps) * es);
}

void gray_radiation(const RadiationConfig& cfg, Column& c, double dt,
                    ColumnDiag& diag) {
  const int n = c.nlev;
  const std::size_t sn = static_cast<std::size_t>(n);
  // Per-level optical depth, transmissivity and blackbody emission, then
  // the two flux profiles on the n+1 interfaces: 5n+2 doubles of c.work.
  double* dtau = c.work.data();
  double* tr = dtau + sn;
  double* emit = tr + sn;
  double* up = emit + sn;
  double* down = up + sn + 1;

  // Gray optical depth grows quadratically toward the surface (a crude
  // water-vapor profile): tau(p) = tau0 (p/ps)^2.
  double p_int = homme::kPtop;
  double tau_prev = cfg.tau0 * (p_int / c.ps) * (p_int / c.ps);
  for (int k = 0; k < n; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    p_int += c.dp[sk];
    const double tau = cfg.tau0 * (p_int / c.ps) * (p_int / c.ps);
    dtau[sk] = tau - tau_prev;
    tau_prev = tau;
    tr[sk] = std::exp(-dtau[sk]);
    emit[sk] = kStefan * std::pow(c.t[sk], 4);
  }

  down[0] = 0.0;
  for (std::size_t k = 0; k < sn; ++k) {
    down[k + 1] = down[k] * tr[k] + emit[k] * (1.0 - tr[k]);
  }
  up[sn] = kStefan * std::pow(c.sst, 4);
  for (std::size_t k = sn; k-- > 0;) {
    up[k] = up[k + 1] * tr[k] + emit[k] * (1.0 - tr[k]);
  }
  diag.olr = up[0];

  // Annual-mean insolation profile; the absorbed-in-atmosphere part is
  // deposited proportionally to optical depth.
  const double cosl = std::cos(c.lat);
  const double insol = cfg.solar0 * (0.25 + 0.75 * cosl * cosl);
  const double sw_col = insol * (1.0 - cfg.albedo) * cfg.sw_abs_frac;

  double heat_col = 0.0;
  for (int k = 0; k < n; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    const double net =
        (up[sk + 1] - down[sk + 1]) - (up[sk] - down[sk]);  // W/m^2 converged
    const double sw = sw_col * dtau[sk] / std::max(1e-12, cfg.tau0);
    const double heating = net + sw;
    c.t[sk] += dt * heating * kGravity / (kCp * c.dp[sk]);
    heat_col += heating;
  }
  diag.net_heating += heat_col;
}

void dry_adjustment(Column& c, int max_iter) {
  const int n = c.nlev;
  double* exner = c.work.data();
  for (int k = 0; k < n; ++k) {
    exner[static_cast<std::size_t>(k)] =
        std::pow(c.p[static_cast<std::size_t>(k)] / kP0, kKappa);
  }
  for (int iter = 0; iter < max_iter; ++iter) {
    bool adjusted = false;
    for (int k = 0; k + 1 < n; ++k) {  // k above, k+1 below
      const std::size_t a = static_cast<std::size_t>(k);
      const std::size_t b = a + 1;
      const double theta_a = c.t[a] / exner[a];
      const double theta_b = c.t[b] / exner[b];
      if (theta_b > theta_a * (1.0 + 1e-12)) {
        // Unstable: mix to a common potential temperature conserving
        // enthalpy cp*(T_a dp_a + T_b dp_b).
        const double denom = exner[a] * c.dp[a] + exner[b] * c.dp[b];
        const double theta = (c.t[a] * c.dp[a] + c.t[b] * c.dp[b]) / denom;
        c.t[a] = theta * exner[a];
        c.t[b] = theta * exner[b];
        // Homogenize moisture too (simple convective transport).
        const double qbar =
            (c.q[a] * c.dp[a] + c.q[b] * c.dp[b]) / (c.dp[a] + c.dp[b]);
        c.q[a] = qbar;
        c.q[b] = qbar;
        adjusted = true;
      }
    }
    if (!adjusted) break;
  }
}

void large_scale_condensation(Column& c, double dt, ColumnDiag& diag) {
  for (int k = 0; k < c.nlev; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    const double qs = saturation_mixing_ratio(c.t[sk], c.p[sk]);
    if (c.q[sk] <= qs) continue;
    const double dqs_dt = qs * kLv / (kRv * c.t[sk] * c.t[sk]);
    const double gamma = (kLv / kCp) * dqs_dt;
    const double dq = (c.q[sk] - qs) / (1.0 + gamma);
    c.q[sk] -= dq;
    c.t[sk] += (kLv / kCp) * dq;
    diag.precip += dq * c.dp[sk] / (kGravity * dt);
  }
}

void surface_and_pbl(const SurfaceConfig& cfg, Column& c, double dt,
                     ColumnDiag& diag) {
  const int n = c.nlev;
  const std::size_t bot = static_cast<std::size_t>(n - 1);

  // Bulk surface fluxes into the lowest layer.
  const double rho = c.ps / (kRgas * c.t[bot]);
  const double wind =
      std::max(cfg.min_wind, std::hypot(c.u[bot], c.v[bot]));
  const double ch = rho * cfg.c_drag * wind;
  const double shf = ch * kCp * (c.sst - c.t[bot]);
  const double qs_sfc = saturation_mixing_ratio(c.sst, c.ps);
  const double lhf = std::max(0.0, ch * kLv * (qs_sfc - c.q[bot]));
  c.t[bot] += dt * shf * kGravity / (kCp * c.dp[bot]);
  c.q[bot] += dt * (lhf / kLv) * kGravity / c.dp[bot];
  // Implicit momentum drag.
  const double drag = ch * kGravity * dt / c.dp[bot];
  c.u[bot] /= (1.0 + drag);
  c.v[bot] /= (1.0 + drag);
  diag.shf += shf;
  diag.lhf += lhf;

  // Implicit vertical diffusion over the PBL depth. In pressure
  // coordinates d/dt X = g^2 d/dp (rho^2 K dX/dp). Interface
  // coefficients (n+1), then the tridiagonal system's eliminated form
  // (multipliers w, modified diagonal b, super-diagonal cc; n each):
  // 4n+1 doubles of c.work.
  const std::size_t sn = static_cast<std::size_t>(n);
  double* kfac = c.work.data();
  double* w = kfac + sn + 1;
  double* b = w + sn;
  double* cc = b + sn;
  std::fill(kfac, kfac + sn + 1, 0.0);
  for (int k = 1; k < n; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    const double p_int = 0.5 * (c.p[sk - 1] + c.p[sk]);
    if (p_int < c.ps - cfg.pbl_depth_pa) continue;
    const double rho_i = p_int / (kRgas * 0.5 * (c.t[sk - 1] + c.t[sk]));
    const double dpi = c.p[sk] - c.p[sk - 1];
    kfac[sk] = kGravity * kGravity * rho_i * rho_i * cfg.k_pbl / dpi;
  }

  // t, q, u and v share one matrix (sub-diagonal -up, diagonal
  // 1+up+dn, super-diagonal -dn), so the Thomas forward elimination of
  // its coefficients runs once.
  for (std::size_t k = 0; k < sn; ++k) {
    const double up = kfac[k] * dt / c.dp[k];
    const double dn = kfac[k + 1] * dt / c.dp[k];
    cc[k] = -dn;
    b[k] = 1.0 + up + dn;
    if (k > 0) {
      w[k] = -up / b[k - 1];
      b[k] -= w[k] * cc[k - 1];
    }
  }
  for (double* x : {c.t.data(), c.q.data(), c.u.data(), c.v.data()}) {
    for (std::size_t i = 1; i < sn; ++i) x[i] -= w[i] * x[i - 1];
    x[sn - 1] /= b[sn - 1];
    for (std::size_t i = sn - 1; i-- > 0;) {
      x[i] = (x[i] - cc[i] * x[i + 1]) / b[i];
    }
  }
}

double column_moist_enthalpy(const Column& c) {
  double s = 0.0;
  for (int k = 0; k < c.nlev; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    s += (kCp * c.t[sk] + kLv * c.q[sk]) * c.dp[sk];
  }
  return s;
}

}  // namespace phys
