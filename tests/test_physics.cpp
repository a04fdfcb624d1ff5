#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <vector>

#include "homme/init.hpp"
#include "homme/vpack.hpp"
#include "physics/driver.hpp"
#include "physics/modules.hpp"
#include "scenario/experiments.hpp"
#include "alloc_counter.hpp"

namespace {

using homme::fidx;
using mesh::kNpp;
using phys::Column;
using phys::ColumnDiag;

/// make_column's latitude.
constexpr double kLat = 0.3;

Column make_column(int nlev, double t0, double q0, double ps = homme::kP0,
                   double lapse = 0.0) {
  Column c(nlev);
  c.sfc = phys::surface_at(kLat, 300.0);
  c.ps = ps;
  double run = homme::kPtop;
  for (int k = 0; k < nlev; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    c.dp[sk] = (ps - homme::kPtop) / nlev;
    c.p[sk] = run + 0.5 * c.dp[sk];
    run += c.dp[sk];
    // t0 at the surface, colder aloft by `lapse` K across the column.
    c.t[sk] = t0 - lapse * (1.0 - c.p[sk] / ps);
    c.q[sk] = q0;
  }
  return c;
}

TEST(Saturation, IncreasesWithTemperature) {
  EXPECT_GT(phys::saturation_vapor_pressure(300.0),
            phys::saturation_vapor_pressure(280.0));
  // ~3.5 kPa near 300 K (Bolton).
  EXPECT_NEAR(phys::saturation_vapor_pressure(300.0), 3530.0, 150.0);
}

TEST(Saturation, MixingRatioDecreasesWithPressure) {
  EXPECT_GT(phys::saturation_mixing_ratio(290.0, 7.0e4),
            phys::saturation_mixing_ratio(290.0, 1.0e5));
}

TEST(Radiation, WarmColumnEmitsMoreOlr) {
  phys::RadiationConfig cfg;
  auto warm = make_column(20, 300.0, 0.0, homme::kP0, 60.0);
  auto cold = make_column(20, 250.0, 0.0, homme::kP0, 60.0);
  ColumnDiag dw, dc;
  phys::gray_radiation(cfg, warm, 1.0, dw);
  phys::gray_radiation(cfg, cold, 1.0, dc);
  EXPECT_GT(dw.olr, dc.olr);
  // OLR below the surface blackbody value (greenhouse).
  EXPECT_LT(dw.olr, phys::kStefan * std::pow(300.0, 4));
  EXPECT_GT(dw.olr, 80.0);
}

TEST(Radiation, CoolsIsothermalColumnAtTopWarmsNearSurfaceEmission) {
  // A 300 K isothermal column above a 300 K surface: interior layers lose
  // energy to space (net cooling), strongest near the top.
  phys::RadiationConfig cfg;
  cfg.sw_abs_frac = 0.0;  // isolate longwave
  auto c = make_column(30, 300.0, 0.0);
  auto before = c.t;
  ColumnDiag diag;
  phys::gray_radiation(cfg, c, 3600.0, diag);
  EXPECT_LT(c.t[0], before[0]);  // top layer cools toward space
}

TEST(DryAdjustment, RemovesInstabilityConservingEnthalpy) {
  auto c = make_column(10, 280.0, 0.001);
  // Make lowest layer absurdly warm (unstable).
  c.t[9] = 330.0;
  const double h0 = phys::column_moist_enthalpy(c);
  phys::dry_adjustment(c);
  const double h1 = phys::column_moist_enthalpy(c);
  EXPECT_NEAR(h1, h0, 1e-9 * h0);
  // After adjustment potential temperature is non-increasing downward.
  for (int k = 0; k + 1 < c.nlev; ++k) {
    const std::size_t a = static_cast<std::size_t>(k);
    const double tha =
        c.t[a] / std::pow(c.p[a] / homme::kP0, homme::kKappa);
    const double thb =
        c.t[a + 1] / std::pow(c.p[a + 1] / homme::kP0, homme::kKappa);
    EXPECT_LE(thb, tha * (1.0 + 1e-6));
  }
}

TEST(DryAdjustment, LeavesStableColumnAlone) {
  auto c = make_column(10, 300.0, 0.0);
  // Stable stratification: theta decreasing downward is *unstable*; build
  // an isothermal column (theta decreases downward? no: isothermal T has
  // theta growing upward, i.e. stable).
  auto before = c.t;
  phys::dry_adjustment(c);
  for (int k = 0; k < c.nlev; ++k) {
    EXPECT_EQ(c.t[static_cast<std::size_t>(k)],
              before[static_cast<std::size_t>(k)]);
  }
}

TEST(Condensation, RemovesSupersaturationAndHeats) {
  auto c = make_column(8, 290.0, 0.0);
  const std::size_t bot = 7;
  const double qs = phys::saturation_mixing_ratio(c.t[bot], c.p[bot]);
  c.q[bot] = 1.5 * qs;
  ColumnDiag diag;
  const double t_before = c.t[bot];
  phys::large_scale_condensation(c, 600.0, diag);
  EXPECT_GT(diag.precip, 0.0);
  EXPECT_GT(c.t[bot], t_before);  // latent heating
  const double qs_after = phys::saturation_mixing_ratio(c.t[bot], c.p[bot]);
  EXPECT_LE(c.q[bot], qs_after * (1.0 + 1e-6));
}

TEST(Condensation, NoPrecipWhenSubsaturated) {
  auto c = make_column(8, 290.0, 1e-4);
  ColumnDiag diag;
  phys::large_scale_condensation(c, 600.0, diag);
  EXPECT_EQ(diag.precip, 0.0);
}

TEST(SurfacePbl, WarmOceanHeatsAndMoistensLowestLayer) {
  phys::SurfaceConfig cfg;
  auto c = make_column(12, 285.0, 1e-3);
  c.sfc = phys::surface_at(kLat, 302.0);
  c.u[11] = 10.0;
  const double t0 = c.t[11], q0 = c.q[11];
  ColumnDiag diag;
  phys::surface_and_pbl(cfg, c, 600.0, diag);
  EXPECT_GT(diag.shf, 0.0);
  EXPECT_GT(diag.lhf, 0.0);
  EXPECT_GT(c.t[11], t0 - 1e-12);
  EXPECT_GT(c.q[11], q0);
  // Drag decelerates the surface wind.
  EXPECT_LT(std::abs(c.u[11]), 10.0);
}

TEST(SurfacePbl, DiffusionSmoothsVerticalGradients) {
  phys::SurfaceConfig cfg;
  cfg.k_pbl = 50.0;
  cfg.pbl_depth_pa = 1.0e5;  // everywhere
  auto c = make_column(10, 280.0, 0.0);
  c.sfc = phys::surface_at(kLat, c.t[9]);  // neutral surface
  for (int k = 0; k < 10; ++k) {
    c.u[static_cast<std::size_t>(k)] = (k % 2 == 0) ? 10.0 : -10.0;
  }
  ColumnDiag diag;
  phys::surface_and_pbl(cfg, c, 1800.0, diag);
  double rough = 0.0;
  for (int k = 0; k + 1 < 10; ++k) {
    rough = std::max(rough, std::abs(c.u[static_cast<std::size_t>(k + 1)] -
                                     c.u[static_cast<std::size_t>(k)]));
  }
  EXPECT_LT(rough, 20.0);  // initial jump was 20
}

TEST(PhysicsDriver, StepProducesReasonableClimateFluxes) {
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::Dims d;
  d.nlev = 12;
  d.qsize = 1;
  auto s = homme::solid_body_rotation(m, d, 10.0, 285.0);
  // Moisten the boundary layer a little.
  for (auto& es : s) {
    auto q = es.q_mut(0, d);
    for (int lev = d.nlev / 2; lev < d.nlev; ++lev) {
      for (int k = 0; k < mesh::kNpp; ++k) {
        q[homme::fidx(lev, k)] = 0.005 * es.dp[homme::fidx(lev, k)];
      }
    }
  }
  phys::PhysicsDriver pd(m, d);
  auto stats = pd.step(s, 1800.0);
  // Earthlike orders of magnitude.
  EXPECT_GT(stats.mean_olr, 100.0);
  EXPECT_LT(stats.mean_olr, 400.0);
  EXPECT_GE(stats.mean_precip, 0.0);
  EXPECT_GT(stats.mean_lhf, 0.0);
  EXPECT_EQ(stats.olr_field.size(),
            static_cast<std::size_t>(m.nelem()) * mesh::kNpp);
}

TEST(PhysicsDriver, ColumnRoundTripPreservesState) {
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::Dims d;
  d.nlev = 6;
  d.qsize = 1;
  auto s = homme::baroclinic(m, d, 15.0);
  homme::init_tracers(m, d, s);
  auto copy = s;
  phys::PhysicsConfig cfg;
  cfg.radiation = cfg.convection = cfg.condensation = cfg.surface_pbl = false;
  phys::PhysicsDriver pd(m, d, cfg);
  pd.step(s, 600.0);  // extract + restore with no physics
  for (std::size_t e = 0; e < s.size(); ++e) {
    for (std::size_t f = 0; f < d.field_size(); ++f) {
      EXPECT_NEAR(s[e].T[f], copy[e].T[f], 1e-10);
      EXPECT_NEAR(s[e].u1[f], copy[e].u1[f],
                  1e-12 + 1e-6 * std::abs(copy[e].u1[f]));
      EXPECT_NEAR(s[e].u2[f], copy[e].u2[f],
                  1e-12 + 1e-6 * std::abs(copy[e].u2[f]));
    }
  }
}

// -- the schemes as they were before the column work array ---------------
// Verbatim pre-rewrite bodies (per-call vectors, exp/pow in both
// radiation sweeps, one Thomas solve per diffused field, the surface's
// library calls made from the raw latitude and SST): the rewritten schemes
// must reproduce them bit for bit.

void prerewrite_gray_radiation(const phys::RadiationConfig& cfg, Column& c,
                               double lat, double dt, ColumnDiag& diag) {
  const int n = c.nlev;
  std::vector<double> dtau(static_cast<std::size_t>(n));
  double p_int = homme::kPtop;
  double tau_prev = cfg.tau0 * (p_int / c.ps) * (p_int / c.ps);
  for (int k = 0; k < n; ++k) {
    p_int += c.dp[static_cast<std::size_t>(k)];
    const double tau = cfg.tau0 * (p_int / c.ps) * (p_int / c.ps);
    dtau[static_cast<std::size_t>(k)] = tau - tau_prev;
    tau_prev = tau;
  }
  std::vector<double> up(static_cast<std::size_t>(n) + 1),
      down(static_cast<std::size_t>(n) + 1);
  down[0] = 0.0;
  for (int k = 0; k < n; ++k) {
    const double tr = std::exp(-dtau[static_cast<std::size_t>(k)]);
    const double b =
        phys::kStefan * std::pow(c.t[static_cast<std::size_t>(k)], 4);
    down[static_cast<std::size_t>(k) + 1] =
        down[static_cast<std::size_t>(k)] * tr + b * (1.0 - tr);
  }
  up[static_cast<std::size_t>(n)] = phys::kStefan * std::pow(c.sfc.sst, 4);
  for (int k = n - 1; k >= 0; --k) {
    const double tr = std::exp(-dtau[static_cast<std::size_t>(k)]);
    const double b =
        phys::kStefan * std::pow(c.t[static_cast<std::size_t>(k)], 4);
    up[static_cast<std::size_t>(k)] =
        up[static_cast<std::size_t>(k) + 1] * tr + b * (1.0 - tr);
  }
  diag.olr = up[0];
  const double cosl = std::cos(lat);
  const double insol = cfg.solar0 * (0.25 + 0.75 * cosl * cosl);
  const double sw_col = insol * (1.0 - cfg.albedo) * cfg.sw_abs_frac;
  double heat_col = 0.0;
  for (int k = 0; k < n; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    const double net = (up[sk + 1] - down[sk + 1]) - (up[sk] - down[sk]);
    const double sw = sw_col * dtau[sk] / std::max(1e-12, cfg.tau0);
    const double heating = net + sw;
    c.t[sk] += dt * heating * homme::kGravity / (homme::kCp * c.dp[sk]);
    heat_col += heating;
  }
  diag.net_heating += heat_col;
}

void prerewrite_tridiag_solve(std::vector<double>& a, std::vector<double>& b,
                              std::vector<double>& cc,
                              std::vector<double>& d) {
  const std::size_t n = b.size();
  for (std::size_t i = 1; i < n; ++i) {
    const double w = a[i] / b[i - 1];
    b[i] -= w * cc[i - 1];
    d[i] -= w * d[i - 1];
  }
  d[n - 1] /= b[n - 1];
  for (std::size_t i = n - 1; i-- > 0;) {
    d[i] = (d[i] - cc[i] * d[i + 1]) / b[i];
  }
}

void prerewrite_surface_and_pbl(const phys::SurfaceConfig& cfg, Column& c,
                                double dt, ColumnDiag& diag) {
  using homme::kCp;
  using homme::kGravity;
  using homme::kRgas;
  using phys::kLv;
  const int n = c.nlev;
  const std::size_t bot = static_cast<std::size_t>(n - 1);
  const double rho = c.ps / (kRgas * c.t[bot]);
  const double wind =
      std::max(cfg.min_wind, std::hypot(c.u[bot], c.v[bot]));
  const double ch = rho * cfg.c_drag * wind;
  const double shf = ch * kCp * (c.sfc.sst - c.t[bot]);
  const double qs_sfc = phys::saturation_mixing_ratio(c.sfc.sst, c.ps);
  const double lhf = std::max(0.0, ch * kLv * (qs_sfc - c.q[bot]));
  c.t[bot] += dt * shf * kGravity / (kCp * c.dp[bot]);
  c.q[bot] += dt * (lhf / kLv) * kGravity / c.dp[bot];
  const double drag = ch * kGravity * dt / c.dp[bot];
  c.u[bot] /= (1.0 + drag);
  c.v[bot] /= (1.0 + drag);
  diag.shf += shf;
  diag.lhf += lhf;
  std::vector<double> kfac(static_cast<std::size_t>(n) + 1, 0.0);
  for (int k = 1; k < n; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    const double p_int = 0.5 * (c.p[sk - 1] + c.p[sk]);
    if (p_int < c.ps - cfg.pbl_depth_pa) continue;
    const double rho_i = p_int / (kRgas * 0.5 * (c.t[sk - 1] + c.t[sk]));
    const double dpi = c.p[sk] - c.p[sk - 1];
    kfac[sk] = kGravity * kGravity * rho_i * rho_i * cfg.k_pbl / dpi;
  }
  auto diffuse = [&](std::vector<double>& x) {
    std::vector<double> a(static_cast<std::size_t>(n), 0.0),
        b(static_cast<std::size_t>(n), 0.0),
        cc(static_cast<std::size_t>(n), 0.0), d(x);
    for (int k = 0; k < n; ++k) {
      const std::size_t sk = static_cast<std::size_t>(k);
      const double up = kfac[sk] * dt / c.dp[sk];
      const double dn = kfac[sk + 1] * dt / c.dp[sk];
      a[sk] = -up;
      cc[sk] = -dn;
      b[sk] = 1.0 + up + dn;
    }
    prerewrite_tridiag_solve(a, b, cc, d);
    x = d;
  };
  diffuse(c.t);
  diffuse(c.q);
  diffuse(c.u);
  diffuse(c.v);
}

// -- the two schemes as they were before their bounds ----------------------
// Verbatim T = double bodies: every level's Exner function computed up
// front, and every level's saturation mixing ratio through exp. The
// bounded schemes must reproduce them bit for bit, whether a bound settles
// a level or leaves it open.

void prerewrite_dry_adjustment(Column& c, int max_iter = 10) {
  using homme::kKappa;
  using homme::kP0;
  const int n = c.nlev;
  std::vector<double> exner(static_cast<std::size_t>(n));
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
      if (!(theta_b > theta_a * (1.0 + 1e-12))) continue;
      const double denom = exner[a] * c.dp[a] + exner[b] * c.dp[b];
      const double theta = (c.t[a] * c.dp[a] + c.t[b] * c.dp[b]) / denom;
      c.t[a] = theta * exner[a];
      c.t[b] = theta * exner[b];
      const double qbar =
          (c.q[a] * c.dp[a] + c.q[b] * c.dp[b]) / (c.dp[a] + c.dp[b]);
      c.q[a] = qbar;
      c.q[b] = qbar;
      adjusted = true;
    }
    if (!adjusted) break;
  }
}

void prerewrite_large_scale_condensation(Column& c, double dt,
                                         ColumnDiag& diag) {
  using homme::kCp;
  using homme::kGravity;
  using phys::kEps;
  using phys::kLv;
  using phys::kRv;
  for (int k = 0; k < c.nlev; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    const double es_t =
        611.2 * std::exp(17.67 * (c.t[sk] - 273.15) / (c.t[sk] - 29.65));
    const double es = std::min(es_t, 0.5 * c.p[sk]);
    const double qs = kEps * es / (c.p[sk] - (1.0 - kEps) * es);
    if (c.q[sk] <= qs) continue;  // subsaturated; a NaN proceeds
    const double dqs_dt = qs * kLv / (kRv * c.t[sk] * c.t[sk]);
    const double gamma = (kLv / kCp) * dqs_dt;
    const double dq = (c.q[sk] - qs) / (1.0 + gamma);
    c.q[sk] -= dq;
    c.t[sk] += (kLv / kCp) * dq;
    diag.precip += dq * c.dp[sk] / (kGravity * dt);
  }
}

TEST(PhysicsSchemes, RadiationAndPblMatchTheirPreRewriteForms) {
  phys::RadiationConfig rad;
  for (int trial = 0; trial < 40; ++trial) {
    const int nlev = 6 + trial % 25;
    auto a = make_column(nlev, 250.0 + trial, 1e-3 * (trial % 7),
                         homme::kP0 * (0.95 + 0.002 * trial), 10.0 + trial);
    const double lat = -1.2 + 0.06 * trial;
    a.sfc = phys::surface_at(lat, 285.0 + 0.5 * trial);
    for (int k = 0; k < nlev; ++k) {
      a.u[static_cast<std::size_t>(k)] = 12.0 * std::sin(0.7 * (k + trial));
      a.v[static_cast<std::size_t>(k)] = -5.0 + 0.3 * k;
    }
    phys::SurfaceConfig sfc;
    sfc.pbl_depth_pa = 2.0e4 + 2.0e3 * trial;
    auto b = a;
    ColumnDiag da, db;
    phys::gray_radiation(rad, a, 1800.0, da);
    prerewrite_gray_radiation(rad, b, lat, 1800.0, db);
    phys::surface_and_pbl(sfc, a, 1800.0, da);
    prerewrite_surface_and_pbl(sfc, b, 1800.0, db);
    EXPECT_TRUE(a.t == b.t && a.q == b.q && a.u == b.u && a.v == b.v)
        << "trial " << trial;
    EXPECT_EQ(da.olr, db.olr);
    EXPECT_EQ(da.net_heating, db.net_heating);
    EXPECT_EQ(da.shf, db.shf);
    EXPECT_EQ(da.lhf, db.lhf);
  }
}

/// The straightforward driver PhysicsDriver::step must reproduce bit for
/// bit: per point a fresh Column, the trig-based extract, the four
/// schemes, and the restore through homme::wind_to_contra.
phys::PhysicsStats oracle_step(const mesh::CubedSphere& m,
                               const homme::Dims& d,
                               const phys::PhysicsConfig& cfg,
                               homme::State& s, double dt) {
  phys::PhysicsStats out;
  out.olr_field.assign(static_cast<std::size_t>(m.nelem()) * kNpp, 0.0);
  double area = 0.0;
  for (int e = 0; e < m.nelem(); ++e) {
    const auto& g = m.geom(e);
    homme::ElementState& es = s[static_cast<std::size_t>(e)];
    for (int k = 0; k < kNpp; ++k) {
      const std::size_t sk = static_cast<std::size_t>(k);
      Column c(d.nlev);
      const double lat = g.lat[sk], lon = g.lon[sk];
      c.sfc = phys::surface_at(lat, cfg.sst(lat, lon));
      const double ex = -std::sin(lon), ey = std::cos(lon);
      const double nx = -std::sin(lat) * std::cos(lon);
      const double ny = -std::sin(lat) * std::sin(lon);
      const double nz = std::cos(lat);
      c.ps = homme::kPtop;
      double run = homme::kPtop;
      for (int lev = 0; lev < d.nlev; ++lev) {
        const std::size_t l = static_cast<std::size_t>(lev), f = fidx(lev, k);
        c.t[l] = es.T[f];
        c.dp[l] = es.dp[f];
        c.q[l] = es.q(0, d)[f] / es.dp[f];
        const double u1 = es.u1[f], u2 = es.u2[f];
        const double ux = u1 * g.a1[0][sk] + u2 * g.a2[0][sk];
        const double uy = u1 * g.a1[1][sk] + u2 * g.a2[1][sk];
        const double uz = u1 * g.a1[2][sk] + u2 * g.a2[2][sk];
        c.u[l] = ux * ex + uy * ey;
        c.v[l] = ux * nx + uy * ny + uz * nz;
        c.ps += es.dp[f];
        c.p[l] = run + 0.5 * c.dp[l];
        run += c.dp[l];
      }
      ColumnDiag diag;
      if (cfg.radiation) phys::gray_radiation(cfg.rad, c, dt, diag);
      if (cfg.convection) phys::dry_adjustment(c);
      if (cfg.condensation) phys::large_scale_condensation(c, dt, diag);
      if (cfg.surface_pbl) phys::surface_and_pbl(cfg.sfc, c, dt, diag);
      for (int lev = 0; lev < d.nlev; ++lev) {
        const std::size_t l = static_cast<std::size_t>(lev), f = fidx(lev, k);
        es.T.mutable_span()[f] = c.t[l];
        es.q_mut(0, d)[f] = c.q[l] * es.dp[f];
        homme::wind_to_contra(g, k, c.u[l], c.v[l], es.u1.mutable_span()[f],
                              es.u2.mutable_span()[f]);
      }
      const double w = g.mass[sk];
      area += w;
      out.mean_precip += w * diag.precip;
      out.mean_olr += w * diag.olr;
      out.mean_shf += w * diag.shf;
      out.mean_lhf += w * diag.lhf;
      out.max_precip = std::max(out.max_precip, diag.precip);
      out.olr_field[static_cast<std::size_t>(e) * kNpp + sk] = diag.olr;
    }
  }
  out.mean_precip /= area;
  out.mean_olr /= area;
  out.mean_shf /= area;
  out.mean_lhf /= area;
  return out;
}

/// A moist baroclinic state: a lapse-rate temperature profile under a
/// humid lower troposphere that is supersaturated in places
/// (condensation fires) and a warm lowest layer in every third column
/// (dry adjustment fires).
homme::State moist_state(const mesh::CubedSphere& m, const homme::Dims& d) {
  auto s = homme::baroclinic(m, d, 15.0);
  homme::init_tracers(m, d, s);
  for (auto& es : s) {
    auto q = es.q_mut(0, d);
    auto T = es.T.mutable_span();
    for (int k = 0; k < kNpp; ++k) {
      for (int lev = 0; lev < d.nlev; ++lev) {
        const double sigma = (lev + 0.5) / d.nlev;
        T[fidx(lev, k)] = 300.0 * std::pow(sigma, 0.19);
        q[fidx(lev, k)] = 0.04 * sigma * sigma * sigma * es.dp[fidx(lev, k)];
      }
      if (k % 3 == 0) T[fidx(d.nlev - 1, k)] += 12.0;
    }
  }
  return s;
}

TEST(PhysicsDriver, StepIsBitIdenticalToStraightforwardOracle) {
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  for (int qsize : {1, 2}) {
    for (bool katrina : {false, true}) {
      homme::Dims d;
      d.nlev = 10;
      d.qsize = qsize;
      const phys::PhysicsConfig cfg =
          katrina ? scenario::katrina_physics_cfg(tc::TcParams{})
                  : phys::PhysicsConfig{};
      auto a = moist_state(m, d);
      auto b = a;
      phys::PhysicsDriver pd(m, d, cfg);
      // Two steps: the second runs on the already-reused column.
      for (int step = 0; step < 2; ++step) {
        const phys::PhysicsStats sa = pd.step(a, 900.0);
        const phys::PhysicsStats sb = oracle_step(m, d, cfg, b, 900.0);
        EXPECT_EQ(sa.mean_precip, sb.mean_precip);
        EXPECT_EQ(sa.mean_olr, sb.mean_olr);
        EXPECT_EQ(sa.mean_shf, sb.mean_shf);
        EXPECT_EQ(sa.mean_lhf, sb.mean_lhf);
        EXPECT_EQ(sa.max_precip, sb.max_precip);
        EXPECT_GT(sa.max_precip, 0.0);
        EXPECT_TRUE(sa.olr_field == sb.olr_field);
        for (std::size_t e = 0; e < a.size(); ++e) {
          ASSERT_TRUE(a[e].T == b[e].T) << "elem " << e;
          ASSERT_TRUE(a[e].u1 == b[e].u1) << "elem " << e;
          ASSERT_TRUE(a[e].u2 == b[e].u2) << "elem " << e;
          ASSERT_TRUE(a[e].qdp == b[e].qdp) << "elem " << e;
        }
      }
    }
  }
}

// -- one column per lane ------------------------------------------------------

/// Four columns that drive every branch of the suite differently: a
/// supersaturated level in lane 0 only, a warm surface layer in lane 1 that
/// keeps dry adjustment sweeping to max_iter beside lanes stable from the
/// start, a layer spacing per lane so that the PBL depth crosses a
/// different interface in each, an air layer moister than the cold ocean's
/// saturation in lane 3 (the latent flux clamps at 0), and winds of -0.0
/// and +0.0 in lanes 2 and 3. Lane 4 sits at the bounds' edges: a dry
/// adiabat from 305 K floored at 150 K aloft, its pairs within 1e-11 of
/// neutral on alternating sides, and humidities that put condensation's
/// levels within 1e-9 of saturation on both sides (set from the
/// temperatures radiation and dry adjustment leave at the test's dt).
std::vector<Column> lane_columns(int nlev) {
  std::vector<Column> cols;
  for (int lane = 0; lane < 5; ++lane) {
    Column c(nlev);
    const double ps = homme::kP0 * (1.0 - 0.05 * lane);
    c.ps = ps;
    c.sfc = phys::surface_at(-0.9 + 0.6 * lane, lane == 3 ? 270.0 : 301.0);
    // Layers thin toward the surface, faster in each further lane.
    auto weight = [lane, nlev](int k) {
      return std::exp(-0.8 * lane * k / nlev);
    };
    double wsum = 0.0;
    for (int k = 0; k < nlev; ++k) wsum += weight(k);
    double run = homme::kPtop;
    for (int k = 0; k < nlev; ++k) {
      const std::size_t sk = static_cast<std::size_t>(k);
      c.dp[sk] = (ps - homme::kPtop) * weight(k) / wsum;
      c.p[sk] = run + 0.5 * c.dp[sk];
      run += c.dp[sk];
      c.t[sk] = 295.0 * std::pow(c.p[sk] / ps, 0.19);
      const double qs = phys::saturation_mixing_ratio(c.t[sk], c.p[sk]);
      c.q[sk] = (lane == 1 ? 0.01 : 0.3) * qs;
      c.u[sk] = lane == 2 ? -0.0 : lane == 3 ? 0.0 : 6.0 - 0.5 * k;
      c.v[sk] = lane == 2 ? 0.0 : lane == 3 ? -0.0 : 1.5 + 0.1 * k;
    }
    if (lane == 0) c.q[static_cast<std::size_t>(nlev - 4)] *= 5.0;
    if (lane == 1) c.t[static_cast<std::size_t>(nlev - 1)] += 40.0;
    if (lane == 4) {
      c.t[static_cast<std::size_t>(nlev - 1)] = 305.0;
      for (int k = nlev - 2; k >= 0; --k) {
        const std::size_t sk = static_cast<std::size_t>(k);
        const double adiabat =
            c.t[sk + 1] * std::pow(c.p[sk] / c.p[sk + 1], homme::kKappa);
        c.t[sk] = std::max(150.0, adiabat * (k % 2 == 0 ? 1.0 + 1e-11
                                                        : 1.0 - 1e-11));
      }
      Column before_condensation = c;
      ColumnDiag d;
      phys::gray_radiation(phys::RadiationConfig{}, before_condensation,
                           1800.0, d);
      phys::dry_adjustment(before_condensation);
      const double offsets[] = {-5e-10, 5e-10, -2e-9, 1e-6, -1e-6};
      for (int k = 0; k < nlev; ++k) {
        const std::size_t sk = static_cast<std::size_t>(k);
        c.q[sk] = phys::saturation_mixing_ratio(before_condensation.t[sk],
                                                c.p[sk]) *
                  (1.0 + offsets[k % 5]);
      }
    }
    cols.push_back(c);
  }
  return cols;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(Physics, LanesMatchColumnsBitForBit) {
  using homme::vpack;
  constexpr int kW = vpack::width;
  constexpr int nlev = 16;
  constexpr double dt = 1800.0;
  const phys::RadiationConfig rad;
  const phys::SurfaceConfig sfc;
  const std::vector<Column> start = lane_columns(nlev);

  // The columns one at a time, scheme by scheme, with each scheme's
  // input and output kept.
  enum { kRad, kConv, kCond, kPbl, kSchemes };
  const int ncols = static_cast<int>(start.size());
  std::vector<std::vector<Column>> after(kSchemes);
  std::vector<ColumnDiag> diag(start.size());
  for (int i = 0; i < ncols; ++i) {
    Column c = start[static_cast<std::size_t>(i)];
    ColumnDiag& d = diag[static_cast<std::size_t>(i)];
    phys::gray_radiation(rad, c, dt, d);
    after[kRad].push_back(c);
    phys::dry_adjustment(c);
    after[kConv].push_back(c);
    phys::large_scale_condensation(c, dt, d);
    after[kCond].push_back(c);
    phys::surface_and_pbl(sfc, c, dt, d);
    after[kPbl].push_back(c);
  }

  // The columns reach every branch they were built for.
  for (int i = 0; i < 4; ++i) {
    const std::size_t si = static_cast<std::size_t>(i);
    EXPECT_EQ(diag[si].precip > 0.0, i == 0) << "lane " << i;
    EXPECT_EQ(diag[si].lhf == 0.0, i == 3) << "lane " << i;
    EXPECT_EQ(after[kConv][si].t == after[kRad][si].t, i != 1) << i;
  }
  {
    Column ten = after[kRad][1], eleven = after[kRad][1];
    phys::dry_adjustment(ten, 10);
    phys::dry_adjustment(eleven, 11);
    EXPECT_FALSE(ten.t == eleven.t) << "lane 1 stops before max_iter";
  }
  std::vector<int> mixed;
  for (const Column& c : after[kCond]) {
    int m = 0;
    for (int k = 1; k < nlev; ++k) {
      const std::size_t sk = static_cast<std::size_t>(k);
      m += !(0.5 * (c.p[sk - 1] + c.p[sk]) < c.ps - sfc.pbl_depth_pa);
    }
    EXPECT_EQ(std::count(mixed.begin(), mixed.end(), m), 0) << m;
    mixed.push_back(m);
  }

  // kW columns per call, against each column alone; the calls cycle
  // through the columns, so every column runs in some call.
  const auto col = [ncols](int i) {
    return static_cast<std::size_t>(i % ncols);
  };
  for (int first = 0; first < ncols; first += kW) {
    phys::BasicColumn<vpack> c(nlev);
    phys::BasicColumnDiag<vpack> d;
    auto pack = [&](auto get) {
      double lanes[kW];
      for (int i = 0; i < kW; ++i) lanes[i] = get(start[col(first + i)]);
      return vpack::load(lanes);
    };
    c.ps = pack([](const Column& x) { return x.ps; });
    c.sfc = {pack([](const Column& x) { return x.sfc.sst; }),
             pack([](const Column& x) { return x.sfc.emit; }),
             pack([](const Column& x) { return x.sfc.es; }),
             pack([](const Column& x) { return x.sfc.cos_lat; })};
    for (std::size_t l = 0; l < nlev; ++l) {
      c.t[l] = pack([l](const Column& x) { return x.t[l]; });
      c.q[l] = pack([l](const Column& x) { return x.q[l]; });
      c.u[l] = pack([l](const Column& x) { return x.u[l]; });
      c.v[l] = pack([l](const Column& x) { return x.v[l]; });
      c.dp[l] = pack([l](const Column& x) { return x.dp[l]; });
      c.p[l] = pack([l](const Column& x) { return x.p[l]; });
    }
    auto expect_columns = [&](int scheme) {
      for (int i = 0; i < kW; ++i) {
        const Column& want =
            after[static_cast<std::size_t>(scheme)][col(first + i)];
        for (std::size_t l = 0; l < nlev; ++l) {
          EXPECT_TRUE(same_bits(c.t[l][i], want.t[l]) &&
                      same_bits(c.q[l][i], want.q[l]) &&
                      same_bits(c.u[l][i], want.u[l]) &&
                      same_bits(c.v[l][i], want.v[l]) &&
                      same_bits(c.dp[l][i], want.dp[l]) &&
                      same_bits(c.p[l][i], want.p[l]))
              << "scheme " << scheme << ", column " << col(first + i)
              << ", level " << l;
        }
      }
    };
    phys::gray_radiation(rad, c, dt, d);
    expect_columns(kRad);
    phys::dry_adjustment(c);
    expect_columns(kConv);
    phys::large_scale_condensation(c, dt, d);
    expect_columns(kCond);
    phys::surface_and_pbl(sfc, c, dt, d);
    expect_columns(kPbl);
    for (int i = 0; i < kW; ++i) {
      const ColumnDiag& want = diag[col(first + i)];
      EXPECT_TRUE(same_bits(d.precip[i], want.precip) &&
                  same_bits(d.olr[i], want.olr) &&
                  same_bits(d.shf[i], want.shf) &&
                  same_bits(d.lhf[i], want.lhf) &&
                  same_bits(d.net_heating[i], want.net_heating))
          << "column " << col(first + i);
    }
  }
}

// -- the bounds against the straightforward forms ---------------------------

/// Whether two columns hold the same bits in every prognostic.
bool same_column(const Column& a, const Column& b) {
  const auto same = [](const std::vector<double>& x,
                       const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  return same(a.t, b.t) && same(a.q, b.q) && same(a.u, b.u) &&
         same(a.v, b.v);
}

/// \p scheme on the columns \p cols, kW at a time in the lanes of one
/// vpack column (cycling through the columns to fill the last call), and
/// one at a time: every lane must equal its column, and both must equal
/// \p oracle's bits (t, q and precip).
template <class Scheme, class Oracle>
void expect_scheme_matches_oracle(const std::vector<Column>& cols,
                                  Scheme scheme, Oracle oracle) {
  using homme::vpack;
  constexpr int kW = vpack::width;
  ASSERT_FALSE(cols.empty());
  const int ncols = static_cast<int>(cols.size());
  const int nlev = cols.front().nlev;
  for (int i = 0; i < ncols; ++i) {
    Column got = cols[static_cast<std::size_t>(i)];
    Column want = got;
    ColumnDiag dg, dw;
    scheme(got, dg);
    oracle(want, dw);
    EXPECT_TRUE(same_column(got, want)) << "column " << i;
    EXPECT_TRUE(same_bits(dg.precip, dw.precip)) << "column " << i;
  }
  for (int first = 0; first < ncols; first += kW) {
    const auto col = [&](int lane) -> const Column& {
      return cols[static_cast<std::size_t>((first + lane) % ncols)];
    };
    phys::BasicColumn<vpack> c(nlev);
    phys::BasicColumnDiag<vpack> d;
    for (std::size_t l = 0; l < static_cast<std::size_t>(nlev); ++l) {
      double t[kW], q[kW], dp[kW], p[kW];
      for (int i = 0; i < kW; ++i) {
        t[i] = col(i).t[l];
        q[i] = col(i).q[l];
        dp[i] = col(i).dp[l];
        p[i] = col(i).p[l];
      }
      c.t[l] = vpack::load(t);
      c.q[l] = vpack::load(q);
      c.dp[l] = vpack::load(dp);
      c.p[l] = vpack::load(p);
    }
    scheme(c, d);
    for (int i = 0; i < kW; ++i) {
      Column want = col(i);
      ColumnDiag dw;
      oracle(want, dw);
      for (std::size_t l = 0; l < static_cast<std::size_t>(nlev); ++l) {
        EXPECT_TRUE(same_bits(c.t[l][i], want.t[l]) &&
                    same_bits(c.q[l][i], want.q[l]))
            << "column " << (first + i) % ncols << ", level " << l;
      }
      EXPECT_TRUE(same_bits(d.precip[i], dw.precip))
          << "column " << (first + i) % ncols;
    }
  }
}

/// A seeded uniform draw in [0, 1).
struct Draw {
  std::mt19937_64 rng;
  explicit Draw(unsigned seed) : rng(seed) {}
  double operator()() { return static_cast<double>(rng() >> 11) * 0x1p-53; }
};

/// Inputs outside the bounds' range, which must leave a level open and
/// behave as the straightforward form does.
constexpr double kOutside[] = {0.0, -0.0, -5.0, 1e-31, 1e31,
                               std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()};

TEST(PhysicsSchemes, DryAdjustmentMatchesItsPreRewriteForm) {
  using homme::kKappa;
  // Each pair's potential temperatures differ by a relative f: within
  // 1e-10 of neutral on both sides (open, some unstable beyond the mask's
  // 1e-12), or at the bound's own edge (just settled, just open). Tops
  // are floored near 150 K above a warm surface; some columns carry a t
  // or p outside the bounds' range.
  const double near_neutral[] = {-2e-10, -1e-10, -1e-11, -1e-12, -1e-13,
                                 0.0,    1e-13,  9e-13,  1e-12,  1.1e-12,
                                 1e-11,  1e-10,  2e-10};
  const double at_edge[] = {-1e-13, -1e-15, 0.0, 1e-15, 1e-13};
  Draw draw{7};
  std::vector<Column> cols;
  for (int trial = 0; trial < 48; ++trial) {
    const int nlev = 8 + trial % 17;
    Column c = make_column(nlev, 300.0, 1e-3,
                           homme::kP0 * (0.9 + 0.004 * trial));
    for (std::size_t k = 0; k < static_cast<std::size_t>(nlev); ++k) {
      c.q[k] = 1e-3 * draw();
    }
    c.t[static_cast<std::size_t>(nlev - 1)] = 295.0 + 20.0 * draw();
    for (int k = nlev - 2; k >= 0; --k) {
      const std::size_t a = static_cast<std::size_t>(k), b = a + 1;
      const double pa = c.p[a], pb = c.p[b], tb = c.t[b];
      double ta;
      if (trial % 3 == 2) {
        // The bound's edge: t_b p_b = t_a (p_b + kappa (p_b - p_a))
        // (1 - 1e-10), moved by a relative g.
        const double g = at_edge[static_cast<std::size_t>(k) % 5];
        ta = tb * pb / ((pb + kKappa * (pb - pa)) * (1.0 - 1e-10)) *
             (1.0 + g);
      } else {
        const double f = near_neutral[static_cast<std::size_t>(k + trial) %
                                      13];
        ta = tb * std::pow(pa / pb, kKappa) / (1.0 + f);
      }
      c.t[a] = std::max(150.0 + 5.0 * draw(), ta);
    }
    if (trial % 4 == 3) {
      const std::size_t k =
          static_cast<std::size_t>(draw() * nlev) % c.t.size();
      const double bad = kOutside[static_cast<std::size_t>(trial / 4) % 7];
      if (trial % 8 == 3) {
        c.t[k] = bad;
      } else {
        c.p[k] = bad;
      }
    }
    cols.push_back(c);
  }
  // The straightforward form adjusts some of them and leaves the others.
  int adjusted = 0;
  for (const Column& c : cols) {
    Column x = c;
    prerewrite_dry_adjustment(x);
    adjusted += !same_column(x, c);
  }
  EXPECT_GT(adjusted, 8);
  EXPECT_LT(adjusted, static_cast<int>(cols.size()) - 8);
  // Columns of one level count per call.
  for (int nlev = 8; nlev < 25; ++nlev) {
    std::vector<Column> same_nlev;
    for (const Column& c : cols) {
      if (c.nlev == nlev) same_nlev.push_back(c);
    }
    expect_scheme_matches_oracle(
        same_nlev,
        [](auto& c, auto&) { phys::dry_adjustment(c); },
        [](Column& c, ColumnDiag&) { prerewrite_dry_adjustment(c); });
  }
}

TEST(PhysicsSchemes, CondensationMatchesItsPreRewriteForm) {
  constexpr double dt = 900.0;
  // Levels are independent: one long column per lane holds levels from
  // cold tops near 150 K to a warm surface, at pressures from 1 hPa to
  // the surface, whose q sits at a ratio r of the qs exp gives:
  // r = 1 - 10^(-j/8) and 1 + 10^(-j/8) reach every scale from far below
  // saturation to the last bits around it, the bound's edges included,
  // and some levels carry a t, p or q outside the bounds' range.
  std::vector<double> ratios{1.0};
  for (int j = 0; j <= 128; ++j) {
    ratios.push_back(1.0 - std::pow(10.0, -j / 8.0));
    if (j >= 8) ratios.push_back(1.0 + std::pow(10.0, -j / 8.0));
  }
  Draw draw{11};
  const int nlev = 2048;
  std::vector<Column> cols;
  int supersaturated = 0;
  for (int lane = 0; lane < 5; ++lane) {
    Column c(nlev);
    for (std::size_t k = 0; k < static_cast<std::size_t>(nlev); ++k) {
      const double t = k % 7 == 0 ? 150.0 + 2.0 * draw()
                                  : 150.0 + 170.0 * draw();
      const double p = 100.0 + 1.05e5 * draw();
      const double qs = phys::saturation_mixing_ratio(t, p);
      const double r = ratios[(k * 5 + static_cast<std::size_t>(lane)) %
                              ratios.size()];
      c.t[k] = t;
      c.p[k] = p;
      c.dp[k] = 500.0 + 1000.0 * draw();
      c.q[k] = k % 11 == 5 ? std::nextafter(qs, r < 1.0 ? 0.0 : 1.0)
                           : qs * r;
      supersaturated += c.q[k] > qs;
    }
    for (std::size_t i = 0; i < 3 * std::size(kOutside); ++i) {
      const std::size_t k = 17 + 29 * i + static_cast<std::size_t>(lane);
      const double bad = kOutside[i % std::size(kOutside)];
      if (i / std::size(kOutside) == 0) c.t[k] = bad;
      if (i / std::size(kOutside) == 1) c.p[k] = bad;
      if (i / std::size(kOutside) == 2) c.q[k] = bad;
    }
    c.t[100 + static_cast<std::size_t>(lane)] = 29.65;  // Bolton's pole
    cols.push_back(c);
  }
  EXPECT_GT(supersaturated, nlev);
  expect_scheme_matches_oracle(
      cols,
      [](auto& c, auto& d) { phys::large_scale_condensation(c, dt, d); },
      [](Column& c, ColumnDiag& d) {
        prerewrite_large_scale_condensation(c, dt, d);
      });
}

TEST(Physics, EmissionMatchesPow) {
  using homme::vpack;
  constexpr int kW = vpack::width;
  const auto pow4 = [](double t) { return phys::kStefan * std::pow(t, 4); };
  std::size_t mismatches = 0;
  const auto check = [&](const double (&t)[kW]) {
    const vpack lanes = phys::blackbody_emission(vpack::load(t));
    for (int i = 0; i < kW; ++i) {
      const double want = pow4(t[i]);
      mismatches += !same_bits(phys::blackbody_emission(t[i]), want);
      mismatches += !same_bits(lanes[i], want);
    }
  };
  // 10^7 seeded temperatures in [100, 400] K.
  Draw draw{2017};
  double t[kW];
  for (int n = 0; n < 10'000'000; n += kW) {
    for (double& x : t) x = 100.0 + 300.0 * draw();
    check(t);
  }
  EXPECT_EQ(mismatches, 0u);
  // Walks of 10^4 consecutive doubles around a few temperatures, two of
  // them (128 and 256 K) where t^4 is a power of two. t^4's place between
  // two doubles moves by several ulp a step, so about one step in ten
  // lands where the bound leaves pow to decide.
  std::size_t in_fallback_band = 0;
  for (const double mid : {128.0, 150.0, 216.65, 256.0, 273.15, 300.0}) {
    double x = mid;
    for (int i = 0; i < 5000; ++i) x = std::nextafter(x, 0.0);
    for (int i = 0; i < 10'000; i += kW) {
      for (double& lane : t) {
        lane = x;
        x = std::nextafter(x, 1e3);
      }
      check(t);
      if constexpr (std::numeric_limits<long double>::digits >= 64) {
        for (const double lane : t) {
          // t^4 to 2^-62 relative, against the double pow rounds it to.
          const long double exact = static_cast<long double>(lane) * lane *
                                    lane * lane;
          const double r = std::pow(lane, 4);
          const long double ulp = std::nextafter(r, 1e300) - r;
          in_fallback_band +=
              std::fabs(exact - static_cast<long double>(r)) > 0.46L * ulp;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  if constexpr (std::numeric_limits<long double>::digits >= 64) {
    EXPECT_GT(in_fallback_band, 2000u);
  }
}

TEST(PhysicsDriver, WarmStepAllocatesOnlyItsColumnAndOlrField) {
  const auto m = mesh::CubedSphere::build(4, mesh::kEarthRadius);
  homme::Dims d;
  d.nlev = 16;
  d.qsize = 2;
  homme::State s = scenario::aquaplanet_init_spec().build(m, d);
  phys::PhysicsDriver pd(m, d);
  pd.step(s, 1800.0);  // cold: un-shares the fields it writes
  alloc_counter::arm();
  pd.step(s, 1800.0);
  const std::size_t allocs = alloc_counter::disarm();
  // The seven arrays of its one BasicColumn<vpack> and the olr_field.
  EXPECT_LE(allocs, 8u);
}

}  // namespace
