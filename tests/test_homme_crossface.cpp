// Cross-face consistency properties — the subtlest part of a cubed
// sphere: vector fields change their component representation across
// face boundaries, and every DSS / operator must respect that.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "homme/bndry.hpp"
#include "homme/init.hpp"
#include "homme/ops.hpp"
#include "homme/state.hpp"
#include "mesh/cubed_sphere.hpp"

namespace {

using homme::Dims;
using homme::fidx;
using mesh::kNpp;

/// Fill a globally smooth tangential vector field (the tangential
/// projection of a constant Cartesian vector) in contravariant
/// components on every element.
void fill_smooth_vector(const mesh::CubedSphere& m, const mesh::Vec3& c,
                        std::vector<std::vector<double>>& u1,
                        std::vector<std::vector<double>>& u2, int nlev) {
  u1.assign(static_cast<std::size_t>(m.nelem()), {});
  u2.assign(static_cast<std::size_t>(m.nelem()), {});
  for (int e = 0; e < m.nelem(); ++e) {
    const auto& g = m.geom(e);
    auto& a = u1[static_cast<std::size_t>(e)];
    auto& b = u2[static_cast<std::size_t>(e)];
    a.resize(static_cast<std::size_t>(nlev) * kNpp);
    b.resize(static_cast<std::size_t>(nlev) * kNpp);
    double x[kNpp], y[kNpp], z[kNpp], c1[kNpp], c2[kNpp];
    for (int k = 0; k < kNpp; ++k) {
      const auto& p = g.pos[static_cast<std::size_t>(k)];
      const double radial = mesh::dot(c, p);
      x[k] = c[0] - radial * p[0];
      y[k] = c[1] - radial * p[1];
      z[k] = c[2] - radial * p[2];
    }
    homme::cart_to_contra(g, x, y, z, c1, c2);
    for (int lev = 0; lev < nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        a[fidx(lev, k)] = c1[k];
        b[fidx(lev, k)] = c2[k];
      }
    }
  }
}

TEST(CrossFace, SmoothVectorFieldIsAFixedPointOfVectorDss) {
  // A globally continuous tangent field, expressed per element in that
  // element's own frame, must pass through the Cartesian-rotation vector
  // DSS unchanged — including at cube edges and corners where the frames
  // differ maximally.
  auto m = mesh::CubedSphere::build(3, 1.0);
  homme::BndryExchange bx(m);
  const int nlev = 2;
  std::vector<std::vector<double>> u1, u2;
  fill_smooth_vector(m, {0.2, -1.0, 0.5}, u1, u2, nlev);
  auto r1 = u1, r2 = u2;
  std::vector<double*> p1(static_cast<std::size_t>(m.nelem())),
      p2(static_cast<std::size_t>(m.nelem()));
  for (int e = 0; e < m.nelem(); ++e) {
    p1[static_cast<std::size_t>(e)] = r1[static_cast<std::size_t>(e)].data();
    p2[static_cast<std::size_t>(e)] = r2[static_cast<std::size_t>(e)].data();
  }
  bx.dss_vector_levels(p1, p2, nlev);
  for (int e = 0; e < m.nelem(); ++e) {
    for (std::size_t f = 0; f < r1[static_cast<std::size_t>(e)].size();
         ++f) {
      ASSERT_NEAR(r1[static_cast<std::size_t>(e)][f],
                  u1[static_cast<std::size_t>(e)][f], 1e-12)
          << "elem " << e;
      ASSERT_NEAR(r2[static_cast<std::size_t>(e)][f],
                  u2[static_cast<std::size_t>(e)][f], 1e-12);
    }
  }
}

TEST(CrossFace, VectorDssAveragesCartesianComponents) {
  // Discontinuous input: after vector DSS, the *Cartesian* vectors at a
  // shared node must agree across every owning element, whatever the
  // local frames are.
  auto m = mesh::CubedSphere::build(2, 1.0);
  homme::BndryExchange bx(m);
  const int nlev = 1;
  std::vector<std::vector<double>> u1(static_cast<std::size_t>(m.nelem())),
      u2(static_cast<std::size_t>(m.nelem()));
  for (int e = 0; e < m.nelem(); ++e) {
    u1[static_cast<std::size_t>(e)].assign(kNpp, 1e-6 * (e + 1));
    u2[static_cast<std::size_t>(e)].assign(kNpp, -2e-6 * (e + 1));
  }
  std::vector<double*> p1(static_cast<std::size_t>(m.nelem())),
      p2(static_cast<std::size_t>(m.nelem()));
  for (int e = 0; e < m.nelem(); ++e) {
    p1[static_cast<std::size_t>(e)] = u1[static_cast<std::size_t>(e)].data();
    p2[static_cast<std::size_t>(e)] = u2[static_cast<std::size_t>(e)].data();
  }
  bx.dss_vector_levels(p1, p2, nlev);

  for (int node = 0; node < m.nnodes(); ++node) {
    const auto& owners = m.node_elems(node);
    if (owners.size() < 2) continue;
    double rx = 0, ry = 0, rz = 0;
    bool first = true;
    for (const auto& [e, k] : owners) {
      const auto& g = m.geom(e);
      double xx[kNpp], yy[kNpp], zz[kNpp];
      homme::contra_to_cart(g, u1[static_cast<std::size_t>(e)].data(),
                            u2[static_cast<std::size_t>(e)].data(), xx, yy,
                            zz);
      if (first) {
        rx = xx[k];
        ry = yy[k];
        rz = zz[k];
        first = false;
      } else {
        // Tangent planes differ slightly at shared nodes only through
        // roundoff; the assembled Cartesian vector must agree closely.
        EXPECT_NEAR(xx[k], rx, 1e-9);
        EXPECT_NEAR(yy[k], ry, 1e-9);
        EXPECT_NEAR(zz[k], rz, 1e-9);
      }
    }
  }
}

TEST(CrossFace, SolidBodyWindIsContinuousAcrossAllTwelveCubeEdges) {
  // The initializer converts the analytic zonal wind into each element's
  // frame independently; the result must already be continuous (DSS is a
  // no-op on it) — this exercises every cube edge orientation at once.
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  Dims d;
  d.nlev = 2;
  d.qsize = 0;
  auto s = homme::solid_body_rotation(m, d, 30.0);
  for (int node = 0; node < m.nnodes(); ++node) {
    const auto& owners = m.node_elems(node);
    if (owners.size() < 2) continue;
    double rx = 0, ry = 0, rz = 0;
    bool first = true;
    for (const auto& [e, k] : owners) {
      const auto& g = m.geom(e);
      const auto& es = s[static_cast<std::size_t>(e)];
      double xx[kNpp], yy[kNpp], zz[kNpp];
      homme::contra_to_cart(g, es.u1.data(), es.u2.data(), xx, yy, zz);
      if (first) {
        rx = xx[k];
        ry = yy[k];
        rz = zz[k];
        first = false;
      } else {
        ASSERT_NEAR(xx[k], rx, 1e-8);
        ASSERT_NEAR(yy[k], ry, 1e-8);
        ASSERT_NEAR(zz[k], rz, 1e-8);
      }
    }
  }
}

TEST(CrossFace, ScalarLaplacianOfSmoothFieldIsContinuousAfterDss) {
  auto m = mesh::CubedSphere::build(3, 1.0);
  homme::BndryExchange bx(m);
  const int nelem = m.nelem();
  std::vector<std::vector<double>> lap(static_cast<std::size_t>(nelem));
  std::vector<double*> lp(static_cast<std::size_t>(nelem));
  for (int e = 0; e < nelem; ++e) {
    const auto& g = m.geom(e);
    double sfield[kNpp];
    for (int k = 0; k < kNpp; ++k) {
      const auto& p = g.pos[static_cast<std::size_t>(k)];
      sfield[k] = p[0] * p[0] - p[2];
    }
    lap[static_cast<std::size_t>(e)].resize(kNpp);
    homme::laplace_sphere_wk(g, sfield,
                             lap[static_cast<std::size_t>(e)].data());
    lp[static_cast<std::size_t>(e)] = lap[static_cast<std::size_t>(e)].data();
  }
  bx.dss_levels(lp, 1);
  for (int node = 0; node < m.nnodes(); ++node) {
    const auto& owners = m.node_elems(node);
    if (owners.size() < 2) continue;
    const double v0 = lap[static_cast<std::size_t>(owners[0].first)]
                         [static_cast<std::size_t>(owners[0].second)];
    for (const auto& [e, k] : owners) {
      ASSERT_NEAR(
          lap[static_cast<std::size_t>(e)][static_cast<std::size_t>(k)], v0,
          1e-10 + 1e-10 * std::abs(v0));
    }
  }
}

}  // namespace
