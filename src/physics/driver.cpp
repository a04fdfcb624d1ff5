#include "physics/driver.hpp"

#include <algorithm>
#include <cmath>

namespace phys {

using homme::fidx;
using mesh::kNpp;

PhysicsDriver::PhysicsDriver(const mesh::CubedSphere& m,
                             const homme::Dims& d, PhysicsConfig cfg)
    : mesh_(m), dims_(d), cfg_(std::move(cfg)) {
  consts_.reserve(static_cast<std::size_t>(m.nelem()) * kNpp);
  for (int e = 0; e < m.nelem(); ++e) {
    const auto& g = m.geom(e);
    for (int k = 0; k < kNpp; ++k) {
      const double lat = g.lat[static_cast<std::size_t>(k)];
      const double lon = g.lon[static_cast<std::size_t>(k)];
      consts_.push_back({cfg_.sst(lat, lon), -std::sin(lon), std::cos(lon),
                         -std::sin(lat) * std::cos(lon),
                         -std::sin(lat) * std::sin(lon), std::cos(lat)});
    }
  }
}

PhysicsStats PhysicsDriver::step(homme::State& s, double dt) {
  PhysicsStats out;
  out.olr_field.assign(
      static_cast<std::size_t>(mesh_.nelem()) * kNpp, 0.0);
  const int nlev = dims_.nlev;
  const bool has_q = dims_.qsize > 0;
  Column c(nlev);  // reused by every column; each gather overwrites it
  double area = 0.0;
  for (int e = 0; e < mesh_.nelem(); ++e) {
    const std::size_t se = static_cast<std::size_t>(e);
    const auto& g = mesh_.geom(e);
    homme::ElementState& es = s[se];
    // COW: un-share the written fields once per element.
    const std::span<const double> dp = es.dp.span();
    const std::span<double> qf =
        has_q ? es.q_mut(0, dims_) : std::span<double>{};
    const std::span<double> T = es.T.mutable_span();
    const std::span<double> u1 = es.u1.mutable_span();
    const std::span<double> u2 = es.u2.mutable_span();
    for (int k = 0; k < kNpp; ++k) {
      const std::size_t sk = static_cast<std::size_t>(k);
      const ColumnConstants& cc = consts_[se * kNpp + sk];
      const double a1[3] = {g.a1[0][sk], g.a1[1][sk], g.a1[2][sk]};
      const double a2[3] = {g.a2[0][sk], g.a2[1][sk], g.a2[2][sk]};

      // Gather: physical east/north wind from contravariant components.
      c.lat = g.lat[sk];
      c.lon = g.lon[sk];
      c.sst = cc.sst;
      c.ps = homme::kPtop;
      for (int lev = 0; lev < nlev; ++lev) {
        const std::size_t l = static_cast<std::size_t>(lev);
        const std::size_t f = fidx(lev, k);
        c.t[l] = T[f];
        c.dp[l] = dp[f];
        c.q[l] = has_q ? qf[f] / dp[f] : 0.0;
        const double x1 = u1[f], x2 = u2[f];
        const double ux = x1 * a1[0] + x2 * a2[0];
        const double uy = x1 * a1[1] + x2 * a2[1];
        const double uz = x1 * a1[2] + x2 * a2[2];
        c.u[l] = ux * cc.ex + uy * cc.ey;
        c.v[l] = ux * cc.nx + uy * cc.ny + uz * cc.nz;
        c.ps += dp[f];
      }
      // Mid-level pressures.
      double run = homme::kPtop;
      for (std::size_t l = 0; l < static_cast<std::size_t>(nlev); ++l) {
        c.p[l] = run + 0.5 * c.dp[l];
        run += c.dp[l];
      }

      ColumnDiag diag;
      if (cfg_.radiation) gray_radiation(cfg_.rad, c, dt, diag);
      if (cfg_.convection) dry_adjustment(c);
      if (cfg_.condensation) large_scale_condensation(c, dt, diag);
      if (cfg_.surface_pbl) surface_and_pbl(cfg_.sfc, c, dt, diag);

      // Scatter: east/north wind back to contravariant components through
      // the dual basis (homme::wind_to_contra's arithmetic, ez = 0).
      constexpr double ez = 0.0;
      const double b1[3] = {g.b1[0][sk], g.b1[1][sk], g.b1[2][sk]};
      const double b2[3] = {g.b2[0][sk], g.b2[1][sk], g.b2[2][sk]};
      for (int lev = 0; lev < nlev; ++lev) {
        const std::size_t l = static_cast<std::size_t>(lev);
        const std::size_t f = fidx(lev, k);
        T[f] = c.t[l];
        if (has_q) qf[f] = c.q[l] * dp[f];
        const double ue = c.u[l], vn = c.v[l];
        const double ux = ue * cc.ex + vn * cc.nx;
        const double uy = ue * cc.ey + vn * cc.ny;
        const double uz = ue * ez + vn * cc.nz;
        u1[f] = ux * b1[0] + uy * b1[1] + uz * b1[2];
        u2[f] = ux * b2[0] + uy * b2[1] + uz * b2[2];
      }

      const double w = g.mass[sk];
      area += w;
      out.mean_precip += w * diag.precip;
      out.mean_olr += w * diag.olr;
      out.mean_shf += w * diag.shf;
      out.mean_lhf += w * diag.lhf;
      out.max_precip = std::max(out.max_precip, diag.precip);
      out.olr_field[se * kNpp + sk] = diag.olr;
    }
  }
  out.mean_precip /= area;
  out.mean_olr /= area;
  out.mean_shf /= area;
  out.mean_lhf /= area;
  return out;
}

}  // namespace phys
