#include "homme/init.hpp"

#include <cmath>
#include <functional>

namespace homme {

using mesh::kNpp;

void wind_to_contra(const mesh::ElementGeom& g, int k, double u_east,
                    double v_north, double& u1, double& u2) {
  const std::size_t sk = static_cast<std::size_t>(k);
  const double lat = g.lat[sk], lon = g.lon[sk];
  // Local east and north unit vectors in Cartesian space.
  const double ex = -std::sin(lon), ey = std::cos(lon), ez = 0.0;
  const double nx = -std::sin(lat) * std::cos(lon);
  const double ny = -std::sin(lat) * std::sin(lon);
  const double nz = std::cos(lat);
  const double ux = u_east * ex + v_north * nx;
  const double uy = u_east * ey + v_north * ny;
  const double uz = u_east * ez + v_north * nz;
  u1 = ux * g.b1[0][sk] + uy * g.b1[1][sk] + uz * g.b1[2][sk];
  u2 = ux * g.b2[0][sk] + uy * g.b2[1][sk] + uz * g.b2[2][sk];
}

namespace {

State with_ps_and_wind(const mesh::CubedSphere& m, const Dims& d,
                       const std::function<double(double lat, double lon)>& ps_of,
                       const std::function<double(double lat, double lon)>& u_of,
                       const std::function<double(double lat, double lon, double p)>& t_of) {
  const HybridCoord hc = HybridCoord::uniform(d.nlev);
  State s;
  s.reserve(static_cast<std::size_t>(m.nelem()));
  for (int e = 0; e < m.nelem(); ++e) {
    const auto& g = m.geom(e);
    ElementState es(d);
    std::span<double> dp = es.dp.mutable_span(), T = es.T.mutable_span(),
                      eu1 = es.u1.mutable_span(), eu2 = es.u2.mutable_span(),
                      phis = es.phis.mutable_span();
    for (int k = 0; k < kNpp; ++k) {
      const std::size_t sk = static_cast<std::size_t>(k);
      const double ps = ps_of(g.lat[sk], g.lon[sk]);
      double u1, u2;
      wind_to_contra(g, k, u_of(g.lat[sk], g.lon[sk]), 0.0, u1, u2);
      for (int lev = 0; lev < d.nlev; ++lev) {
        const std::size_t f = fidx(lev, k);
        dp[f] = hc.dp_ref(lev, ps);
        const double p =
            0.5 * (hc.p_int(lev, ps) + hc.p_int(lev + 1, ps));
        T[f] = t_of(g.lat[sk], g.lon[sk], p);
        eu1[f] = u1;
        eu2[f] = u2;
      }
      phis[sk] = 0.0;
    }
    s.push_back(std::move(es));
  }
  return s;
}

}  // namespace

State isothermal_rest(const mesh::CubedSphere& m, const Dims& d, double t0) {
  return with_ps_and_wind(
      m, d, [](double, double) { return kP0; },
      [](double, double) { return 0.0; },
      [t0](double, double, double) { return t0; });
}

State solid_body_rotation(const mesh::CubedSphere& m, const Dims& d,
                          double u0, double t0) {
  const double r = m.radius();
  return with_ps_and_wind(
      m, d,
      [u0, t0, r](double lat, double) {
        const double s = std::sin(lat);
        return kP0 * std::exp(-(u0 * u0 + 2.0 * mesh::kOmega * r * u0) * s *
                              s / (2.0 * kRgas * t0));
      },
      [u0](double lat, double) { return u0 * std::cos(lat); },
      [t0](double, double, double) { return t0; });
}

State baroclinic(const mesh::CubedSphere& m, const Dims& d, double u0,
                 double t0, double amp, double lon0, double lat0,
                 double width) {
  const double r = m.radius();
  return with_ps_and_wind(
      m, d,
      [u0, t0, r](double lat, double) {
        const double s = std::sin(lat);
        return kP0 * std::exp(-(u0 * u0 + 2.0 * mesh::kOmega * r * u0) * s *
                              s / (2.0 * kRgas * t0));
      },
      [u0](double lat, double) { return u0 * std::cos(lat); },
      [t0, amp, lon0, lat0, width](double lat, double lon, double) {
        const double dlat = lat - lat0;
        double dlon = lon - lon0;
        while (dlon > M_PI) dlon -= 2.0 * M_PI;
        while (dlon < -M_PI) dlon += 2.0 * M_PI;
        const double d2 =
            (dlat * dlat + std::cos(lat0) * std::cos(lat0) * dlon * dlon) /
            (width * width);
        return t0 + amp * std::exp(-d2);
      });
}

void init_tracers(const mesh::CubedSphere& m, const Dims& d, State& s) {
  for (int e = 0; e < m.nelem(); ++e) {
    auto& es = s[static_cast<std::size_t>(e)];
    const auto& g = m.geom(e);
    for (int q = 0; q < d.qsize; ++q) {
      auto qf = es.q_mut(q, d);
      const double lon_c = 2.0 * M_PI * q / d.qsize - M_PI;
      for (int k = 0; k < kNpp; ++k) {
        const std::size_t sk = static_cast<std::size_t>(k);
        double dlon = g.lon[sk] - lon_c;
        while (dlon > M_PI) dlon -= 2.0 * M_PI;
        while (dlon < -M_PI) dlon += 2.0 * M_PI;
        const double dist2 = g.lat[sk] * g.lat[sk] + dlon * dlon;
        const double mix = 0.1 + std::exp(-2.0 * dist2);
        for (int lev = 0; lev < d.nlev; ++lev) {
          const std::size_t f = fidx(lev, k);
          qf[f] = mix * es.dp[f];
        }
      }
    }
  }
}

}  // namespace homme
