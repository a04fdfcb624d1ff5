#include "physics/driver.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "homme/vpack.hpp"

namespace phys {

using homme::fidx;
using mesh::kNpp;

template <class T, class W>
void PhysicsDriver::gather(const BasicElementFields<W>& f,
                           const mesh::ElementGeom& g,
                           const ElementConstants& ec, int k,
                           BasicColumn<T>& c) {
  using L = homme::Lanes<T>;
  const auto at = [k](const Tile& t) {
    return L::load(t.data() + k);
  };
  c.sfc = {at(ec.sfc.sst), at(ec.sfc.emit), at(ec.sfc.es),
           at(ec.sfc.cos_lat)};
  const T ex = at(ec.ex), ey = at(ec.ey), nx = at(ec.nx), ny = at(ec.ny);
  const T nz = c.sfc.cos_lat;
  const T a1[3] = {at(g.a1[0]), at(g.a1[1]), at(g.a1[2])};
  const T a2[3] = {at(g.a2[0]), at(g.a2[1]), at(g.a2[2])};
  c.ps = L::fill(homme::kPtop);
  for (int lev = 0; lev < c.nlev; ++lev) {
    const std::size_t l = static_cast<std::size_t>(lev);
    const std::size_t i = fidx(lev, k);
    c.t[l] = L::load(&f.T[i]);
    c.dp[l] = L::load(&f.dp[i]);
    c.q[l] = f.qdp.empty() ? L::fill(0.0) : L::load(&f.qdp[i]) / c.dp[l];
    const T x1 = L::load(&f.u1[i]), x2 = L::load(&f.u2[i]);
    const T ux = x1 * a1[0] + x2 * a2[0];
    const T uy = x1 * a1[1] + x2 * a2[1];
    const T uz = x1 * a1[2] + x2 * a2[2];
    c.u[l] = ux * ex + uy * ey;
    c.v[l] = ux * nx + uy * ny + uz * nz;
    c.ps += c.dp[l];
  }
  // Mid-level pressures.
  T run = L::fill(homme::kPtop);
  for (std::size_t l = 0; l < static_cast<std::size_t>(c.nlev); ++l) {
    c.p[l] = run + 0.5 * c.dp[l];
    run += c.dp[l];
  }
}

template <class T>
void PhysicsDriver::scatter(const BasicColumn<T>& c,
                            const mesh::ElementGeom& g,
                            const ElementConstants& ec, int k,
                            const ElementFields& f) {
  using L = homme::Lanes<T>;
  const auto at = [k](const Tile& t) {
    return L::load(t.data() + k);
  };
  constexpr double ez = 0.0;
  const T ex = at(ec.ex), ey = at(ec.ey), nx = at(ec.nx), ny = at(ec.ny);
  const T nz = c.sfc.cos_lat;
  const T b1[3] = {at(g.b1[0]), at(g.b1[1]), at(g.b1[2])};
  const T b2[3] = {at(g.b2[0]), at(g.b2[1]), at(g.b2[2])};
  for (int lev = 0; lev < c.nlev; ++lev) {
    const std::size_t l = static_cast<std::size_t>(lev);
    const std::size_t i = fidx(lev, k);
    L::store(c.t[l], &f.T[i]);
    if (!f.qdp.empty()) L::store(c.q[l] * c.dp[l], &f.qdp[i]);
    const T ue = c.u[l], vn = c.v[l];
    const T ux = ue * ex + vn * nx;
    const T uy = ue * ey + vn * ny;
    const T uz = ue * ez + vn * nz;
    L::store(ux * b1[0] + uy * b1[1] + uz * b1[2], &f.u1[i]);
    L::store(ux * b2[0] + uy * b2[1] + uz * b2[2], &f.u2[i]);
  }
}

PhysicsDriver::PhysicsDriver(const mesh::CubedSphere& m,
                             const homme::Dims& d, PhysicsConfig cfg)
    : mesh_(m), dims_(d), cfg_(std::move(cfg)) {
  consts_.resize(static_cast<std::size_t>(m.nelem()));
  for (int e = 0; e < m.nelem(); ++e) {
    const auto& g = m.geom(e);
    ElementConstants& ec = consts_[static_cast<std::size_t>(e)];
    for (std::size_t k = 0; k < static_cast<std::size_t>(kNpp); ++k) {
      const double lat = g.lat[k];
      const double lon = g.lon[k];
      const Surface s = surface_at(lat, cfg_.sst(lat, lon));
      ec.sfc.sst[k] = s.sst;
      ec.sfc.emit[k] = s.emit;
      ec.sfc.es[k] = s.es;
      ec.sfc.cos_lat[k] = s.cos_lat;
      ec.ex[k] = -std::sin(lon);
      ec.ey[k] = std::cos(lon);
      ec.nx[k] = -std::sin(lat) * std::cos(lon);
      ec.ny[k] = -std::sin(lat) * std::sin(lon);
    }
  }
}

PhysicsStats PhysicsDriver::step(homme::State& s, double dt) {
  using homme::vpack;
  using L = homme::Lanes<vpack>;
  PhysicsStats out;
  out.olr_field.assign(
      static_cast<std::size_t>(mesh_.nelem()) * kNpp, 0.0);
  // One column per lane, reused by every pack; each gather overwrites it.
  BasicColumn<vpack> c(dims_.nlev);
  double area = 0.0;
  for (int e = 0; e < mesh_.nelem(); ++e) {
    const std::size_t se = static_cast<std::size_t>(e);
    const auto& g = mesh_.geom(e);
    const ElementConstants& ec = consts_[se];
    homme::ElementState& es = s[se];
    // COW: un-share the written fields once per element.
    const ElementFields f{
        es.dp.span(),
        dims_.qsize > 0 ? es.q_mut(0, dims_) : std::span<double>{},
        es.T.mutable_span(), es.u1.mutable_span(), es.u2.mutable_span()};
    for (int k = 0; k < kNpp; k += L::width) {
      gather(f, g, ec, k, c);
      BasicColumnDiag<vpack> diag;
      if (cfg_.radiation) gray_radiation(cfg_.rad, c, dt, diag);
      if (cfg_.convection) dry_adjustment(c);
      if (cfg_.condensation) large_scale_condensation(c, dt, diag);
      if (cfg_.surface_pbl) surface_and_pbl(cfg_.sfc, c, dt, diag);
      scatter(c, g, ec, k, f);

      // Lane by lane, in column order.
      for (int i = 0; i < L::width; ++i) {
        const std::size_t sk = static_cast<std::size_t>(k + i);
        const double w = g.mass[sk];
        const double precip = L::lane(diag.precip, i);
        const double olr = L::lane(diag.olr, i);
        area += w;
        out.mean_precip += w * precip;
        out.mean_olr += w * olr;
        out.mean_shf += w * L::lane(diag.shf, i);
        out.mean_lhf += w * L::lane(diag.lhf, i);
        out.max_precip = std::max(out.max_precip, precip);
        out.olr_field[se * kNpp + sk] = olr;
      }
    }
  }
  out.mean_precip /= area;
  out.mean_olr /= area;
  out.mean_shf /= area;
  out.mean_lhf /= area;
  return out;
}

void PhysicsDriver::pack(const homme::State& s, PackedColumns& img) const {
  img.ncols = mesh_.nelem() * kNpp;
  img.nlev = dims_.nlev;
  const std::size_t ncols = static_cast<std::size_t>(img.ncols);
  const std::array to{&img.t, &img.q, &img.u, &img.v, &img.dp, &img.p};
  for (auto* a : to) a->resize(ncols * static_cast<std::size_t>(img.nlev));
  img.ps.resize(ncols);
  img.sfc.resize(ncols);
  Column c(dims_.nlev);
  const std::array from{&c.t, &c.q, &c.u, &c.v, &c.dp, &c.p};
  for (int e = 0; e < mesh_.nelem(); ++e) {
    const std::size_t se = static_cast<std::size_t>(e);
    const homme::ElementState& es = s[se];
    const BasicElementFields<const double> f{
        es.dp.span(),
        dims_.qsize > 0 ? es.q(0, dims_) : std::span<const double>{},
        es.T.span(), es.u1.span(), es.u2.span()};
    for (int k = 0; k < kNpp; ++k) {
      gather(f, mesh_.geom(e), consts_[se], k, c);
      const int col = e * kNpp + k;
      for (std::size_t a = 0; a < from.size(); ++a) {
        std::copy(from[a]->begin(), from[a]->end(),
                  to[a]->begin() + static_cast<std::ptrdiff_t>(img.off(col)));
      }
      img.ps[static_cast<std::size_t>(col)] = c.ps;
      img.sfc[static_cast<std::size_t>(col)] = c.sfc;
    }
  }
}

void PhysicsDriver::unpack(const PackedColumns& img, homme::State& s) const {
  Column c(dims_.nlev);
  // scatter reads t, q, u, v and dp, and the surface's cos_lat.
  const std::array from{&img.t, &img.q, &img.u, &img.v, &img.dp};
  const std::array to{&c.t, &c.q, &c.u, &c.v, &c.dp};
  for (int e = 0; e < mesh_.nelem(); ++e) {
    const std::size_t se = static_cast<std::size_t>(e);
    homme::ElementState& es = s[se];
    // COW: un-share the written fields once per element, as step does.
    const ElementFields f{
        es.dp.span(),
        dims_.qsize > 0 ? es.q_mut(0, dims_) : std::span<double>{},
        es.T.mutable_span(), es.u1.mutable_span(), es.u2.mutable_span()};
    for (int k = 0; k < kNpp; ++k) {
      const int col = e * kNpp + k;
      const auto o = static_cast<std::ptrdiff_t>(img.off(col));
      for (std::size_t a = 0; a < from.size(); ++a) {
        std::copy(from[a]->begin() + o, from[a]->begin() + o + c.nlev,
                  to[a]->begin());
      }
      c.sfc = img.sfc[static_cast<std::size_t>(col)];
      scatter(c, mesh_.geom(e), consts_[se], k, f);
    }
  }
}

}  // namespace phys
