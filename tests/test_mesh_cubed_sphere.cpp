#include "mesh/cubed_sphere.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <set>
#include <vector>

namespace {

using mesh::CubedSphere;
using mesh::kNp;
using mesh::kNpp;

class CubedSphereTopology : public ::testing::TestWithParam<int> {};

TEST_P(CubedSphereTopology, NodeCountMatchesClosedQuadMeshFormula) {
  // A cubed sphere with ne^2*6 quad elements of (np-1)^2 sub-cells has
  // exactly 6*(n*(np-1))^2 + 2 unique nodes (Euler characteristic 2).
  const int ne = GetParam();
  auto m = CubedSphere::build(ne, 1.0);
  const long long n = static_cast<long long>(ne) * (kNp - 1);
  EXPECT_EQ(m.nnodes(), 6 * n * n + 2);
  EXPECT_EQ(m.nelem(), 6 * ne * ne);
}

TEST_P(CubedSphereTopology, SharedNodeMultiplicityIsValid) {
  const int ne = GetParam();
  auto m = CubedSphere::build(ne, 1.0);
  int corner3 = 0;
  for (int node = 0; node < m.nnodes(); ++node) {
    const std::size_t mult = m.node_elems(node).size();
    // Interior 1, element-edge 2, element-corner 4, cube-corner 3.
    EXPECT_TRUE(mult == 1 || mult == 2 || mult == 3 || mult == 4)
        << "node " << node << " multiplicity " << mult;
    if (mult == 3) ++corner3;
  }
  // Exactly the 8 cube corners have multiplicity 3.
  EXPECT_EQ(corner3, 8);
}

TEST_P(CubedSphereTopology, EveryElementHasFourEdgeNeighbors) {
  const int ne = GetParam();
  auto m = CubedSphere::build(ne, 1.0);
  for (int e = 0; e < m.nelem(); ++e) {
    EXPECT_EQ(m.edge_neighbors(e).size(), 4u) << "element " << e;
  }
}

TEST_P(CubedSphereTopology, TotalAreaIsSphereArea) {
  // GLL quadrature of the (non-polynomial) metric Jacobian is spectrally
  // accurate, not exact: allow a small relative error even at ne=2.
  const int ne = GetParam();
  auto m = CubedSphere::build(ne, 1.0);
  const double exact = 4.0 * std::numbers::pi;
  EXPECT_NEAR(m.total_area(), exact, 1e-5 * exact);
}

TEST(CubedSphere, AreaErrorConvergesSpectrally) {
  const double exact = 4.0 * std::numbers::pi;
  const double e2 =
      std::abs(CubedSphere::build(2, 1.0).total_area() - exact);
  const double e4 =
      std::abs(CubedSphere::build(4, 1.0).total_area() - exact);
  // Doubling the resolution of a degree-3 element should cut the
  // quadrature error by far more than the 16x of a 4th-order scheme.
  EXPECT_LT(e4, e2 / 16.0);
}

INSTANTIATE_TEST_SUITE_P(SmallMeshes, CubedSphereTopology,
                         ::testing::Values(2, 3, 4, 5));

TEST(CubedSphere, DssPreservesConstantField) {
  auto m = CubedSphere::build(4, 1.0);
  std::vector<double> field(static_cast<std::size_t>(m.nelem() * kNpp), 2.5);
  m.dss_scalar(field);
  for (double v : field) EXPECT_NEAR(v, 2.5, 1e-13);
}

TEST(CubedSphere, DssMakesFieldContinuous) {
  auto m = CubedSphere::build(3, 1.0);
  std::vector<double> field(static_cast<std::size_t>(m.nelem() * kNpp));
  // Discontinuous input: element id as value.
  for (int e = 0; e < m.nelem(); ++e) {
    for (int k = 0; k < kNpp; ++k) {
      field[static_cast<std::size_t>(e * kNpp + k)] = e;
    }
  }
  m.dss_scalar(field);
  // After DSS all copies of a shared node agree.
  for (int node = 0; node < m.nnodes(); ++node) {
    const auto& owners = m.node_elems(node);
    const double v0 =
        field[static_cast<std::size_t>(owners[0].first * kNpp +
                                       owners[0].second)];
    for (const auto& [e, k] : owners) {
      EXPECT_NEAR(field[static_cast<std::size_t>(e * kNpp + k)], v0, 1e-12);
    }
  }
}

TEST(CubedSphere, DssIsIdempotent) {
  auto m = CubedSphere::build(3, 1.0);
  std::vector<double> field(static_cast<std::size_t>(m.nelem() * kNpp));
  for (std::size_t i = 0; i < field.size(); ++i) {
    field[i] = std::sin(static_cast<double>(i));
  }
  m.dss_scalar(field);
  auto once = field;
  m.dss_scalar(field);
  for (std::size_t i = 0; i < field.size(); ++i) {
    EXPECT_NEAR(field[i], once[i], 1e-12);
  }
}

TEST(CubedSphere, DssConservesMassWeightedIntegral) {
  auto m = CubedSphere::build(4, 1.0);
  std::vector<double> field(static_cast<std::size_t>(m.nelem() * kNpp));
  for (std::size_t i = 0; i < field.size(); ++i) {
    field[i] = std::cos(0.1 * static_cast<double>(i));
  }
  auto integral = [&] {
    double s = 0;
    for (int e = 0; e < m.nelem(); ++e) {
      for (int k = 0; k < kNpp; ++k) {
        s += m.geom(e).mass[static_cast<std::size_t>(k)] *
             field[static_cast<std::size_t>(e * kNpp + k)];
      }
    }
    return s;
  };
  const double before = integral();
  m.dss_scalar(field);
  EXPECT_NEAR(integral(), before, std::abs(before) * 1e-12 + 1e-12);
}

TEST(CubedSphere, MetricTermsAreConsistent) {
  auto m = CubedSphere::build(3, mesh::kEarthRadius);
  for (int e = 0; e < m.nelem(); e += 7) {
    const auto& g = m.geom(e);
    for (int k = 0; k < kNpp; ++k) {
      const std::size_t sk = static_cast<std::size_t>(k);
      const auto at = [sk](const mesh::VecTiles& v) {
        return mesh::Vec3{v[0][sk], v[1][sk], v[2][sk]};
      };
      // Dual basis property b^i . a_j = delta_ij.
      EXPECT_NEAR(mesh::dot(at(g.b1), at(g.a1)), 1.0, 1e-10);
      EXPECT_NEAR(mesh::dot(at(g.b1), at(g.a2)), 0.0, 1e-10);
      EXPECT_NEAR(mesh::dot(at(g.b2), at(g.a2)), 1.0, 1e-10);
      // The unit normal is the position scaled to the unit sphere.
      for (int d = 0; d < 3; ++d) {
        EXPECT_NEAR(g.rhat[static_cast<std::size_t>(d)][sk],
                    g.pos[sk][static_cast<std::size_t>(d)] /
                        mesh::kEarthRadius,
                    1e-14);
      }
      // Position is on the sphere.
      EXPECT_NEAR(std::sqrt(mesh::dot(g.pos[static_cast<std::size_t>(k)],
                                      g.pos[static_cast<std::size_t>(k)])),
                  mesh::kEarthRadius, 1e-3);
      // Jacobian positive.
      EXPECT_GT(g.jac[static_cast<std::size_t>(k)], 0.0);
    }
  }
}

TEST(CubedSphere, Table2ElementCounts) {
  // Table 2 of the paper.
  EXPECT_EQ(mesh::elements_for_ne(64), 24576);
  EXPECT_EQ(mesh::elements_for_ne(256), 393216);
  EXPECT_EQ(mesh::elements_for_ne(512), 1572864);
  EXPECT_EQ(mesh::elements_for_ne(1024), 6291456);
  EXPECT_EQ(mesh::elements_for_ne(2048), 25165824);
  EXPECT_EQ(mesh::elements_for_ne(4096), 100663296);
}

}  // namespace
