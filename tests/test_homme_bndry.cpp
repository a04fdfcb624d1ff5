// The one DSS (BndryExchange) at every rank count. Each (node, level) sum
// starts at +0.0 and adds its elements in ascending global id, so every
// rank count and both section 7.6 modes give the frozen whole-mesh
// reference's bits, and every copy of a node holds the same bits. Also
// the redesign's copy and message accounting, and the DSS's mathematical
// properties at one rank and at several.

#include "homme/bndry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "homme/ref_kernels.hpp"
#include "homme/state.hpp"
#include "mesh/partition.hpp"
#include "net/mini_mpi.hpp"

namespace {

using homme::BndryExchange;
using homme::fidx;
using mesh::kNpp;

/// One multi-level field per global element ([nlev][kNpp], fidx layout).
using Field = std::vector<std::vector<double>>;

/// A smooth discontinuous field.
Field make_field(int nelem, int nlev) {
  Field f(static_cast<std::size_t>(nelem));
  for (int e = 0; e < nelem; ++e) {
    auto& buf = f[static_cast<std::size_t>(e)];
    buf.resize(static_cast<std::size_t>(nlev) * kNpp);
    for (int lev = 0; lev < nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        buf[fidx(lev, k)] =
            std::sin(0.1 * e) + 0.01 * k + 0.3 * lev + 0.001 * e * k;
      }
    }
  }
  return f;
}

/// Seeded signed values with +-0 sprinkled in, one all +0 element and
/// one all -0 element.
Field signed_field(int nelem, int nlev, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  Field f(static_cast<std::size_t>(nelem));
  for (std::size_t e = 0; e < f.size(); ++e) {
    f[e].resize(static_cast<std::size_t>(nlev) * kNpp);
    for (std::size_t i = 0; i < f[e].size(); ++i) {
      f[e][i] = i % 7 == 3 ? (i % 2 == 0 ? 0.0 : -0.0) : val(rng);
      if (e == 1 || e == 2) f[e][i] = e == 1 ? 0.0 : -0.0;
    }
  }
  return f;
}

std::vector<double*> ptrs(Field& f) {
  std::vector<double*> p;
  for (auto& e : f) p.push_back(e.data());
  return p;
}

/// One DSS of \p u (scalar), or of (\p u, \p v) (vector, when \p v is
/// set), in place, at \p nranks: the whole-mesh exchange with no
/// neighbours at one rank, an SFC partition over a net::Cluster
/// otherwise. Each rank works on its own elements of the global fields.
void run_dss(const mesh::CubedSphere& m, int nranks, int nlev,
             BndryExchange::Mode mode, Field& u, Field* v = nullptr) {
  auto dss = [&](BndryExchange& bx, net::Rank* r) {
    std::vector<double*> pu, pv;
    for (int le = 0; le < bx.nlocal(); ++le) {
      const auto ge = static_cast<std::size_t>(bx.global_elem(le));
      pu.push_back(u[ge].data());
      if (v != nullptr) pv.push_back((*v)[ge].data());
    }
    if (v == nullptr) {
      bx.dss_levels(pu, nlev, r, mode);
    } else {
      bx.dss_vector_levels(pu, pv, nlev, r, mode);
    }
  };
  if (nranks == 1) {
    BndryExchange bx(m);
    dss(bx, nullptr);
    return;
  }
  const auto part = mesh::Partition::build(m, nranks);
  const auto plan = mesh::CommPlan::build(m, part);
  net::Cluster cluster(nranks);
  cluster.run([&](net::Rank& r) {
    BndryExchange bx(m, part, plan, r.rank());
    dss(bx, &r);
  });
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Bit-for-bit equality of two fields, naming the first difference.
::testing::AssertionResult same_bits(const Field& a, const Field& b) {
  for (std::size_t e = 0; e < a.size(); ++e) {
    for (std::size_t i = 0; i < a[e].size(); ++i) {
      if (bits(a[e][i]) != bits(b[e][i])) {
        return ::testing::AssertionFailure()
               << "elem " << e << " value " << i << ": " << a[e][i]
               << " vs " << b[e][i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Every copy of every node holds the same bits, on every level.
::testing::AssertionResult continuous(const mesh::CubedSphere& m,
                                      const Field& f, int nlev) {
  for (int node = 0; node < m.nnodes(); ++node) {
    const auto& owners = m.node_elems(node);
    const auto& [e0, k0] = owners.front();
    for (int lev = 0; lev < nlev; ++lev) {
      const double v0 = f[static_cast<std::size_t>(e0)][fidx(lev, k0)];
      for (const auto& [e, k] : owners) {
        const double v = f[static_cast<std::size_t>(e)][fidx(lev, k)];
        if (bits(v) != bits(v0)) {
          return ::testing::AssertionFailure()
                 << "node " << node << " level " << lev << ": elem " << e
                 << " holds " << v << ", elem " << e0 << " " << v0;
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

struct BndryCase {
  int ne;
  int nranks;
  int nlev;
  BndryExchange::Mode mode;
};

class BndryModes : public ::testing::TestWithParam<BndryCase> {};

TEST_P(BndryModes, MatchesSequentialDss) {
  const auto p = GetParam();
  auto m = mesh::CubedSphere::build(p.ne, mesh::kEarthRadius);
  const Field input = make_field(m.nelem(), p.nlev);
  Field ref = input, got = input;
  homme::ref::dss_levels(m, ptrs(ref), p.nlev);
  run_dss(m, p.nranks, p.nlev, p.mode, got);
  EXPECT_TRUE(same_bits(got, ref));
}

INSTANTIATE_TEST_SUITE_P(
    MeshesRanksModes, BndryModes,
    ::testing::Values(
        BndryCase{2, 2, 3, BndryExchange::Mode::kOriginal},
        BndryCase{2, 2, 3, BndryExchange::Mode::kOverlap},
        BndryCase{3, 6, 2, BndryExchange::Mode::kOriginal},
        BndryCase{3, 6, 2, BndryExchange::Mode::kOverlap},
        BndryCase{4, 13, 1, BndryExchange::Mode::kOriginal},
        BndryCase{4, 13, 1, BndryExchange::Mode::kOverlap},
        BndryCase{3, 1, 2, BndryExchange::Mode::kOverlap}));

TEST(Bndry, OverlapAndOriginalAreBitIdentical) {
  auto m = mesh::CubedSphere::build(3, mesh::kEarthRadius);
  Field a = make_field(m.nelem(), 4), b = a;
  run_dss(m, 6, 4, BndryExchange::Mode::kOriginal, a);
  run_dss(m, 6, 4, BndryExchange::Mode::kOverlap, b);
  EXPECT_TRUE(same_bits(a, b));
}

TEST(Bndry, RedesignRemovesPackBufferCopies) {
  auto m = mesh::CubedSphere::build(4, mesh::kEarthRadius);
  auto part = mesh::Partition::build(m, 4);
  auto plan = mesh::CommPlan::build(m, part);
  auto input = make_field(m.nelem(), 8);
  std::size_t copies_orig = 0, copies_overlap = 0;
  std::size_t msg_orig = 0, msg_overlap = 0;
  net::Cluster cluster(4);
  std::mutex mu;
  for (auto mode :
       {BndryExchange::Mode::kOriginal, BndryExchange::Mode::kOverlap}) {
    cluster.run([&](net::Rank& r) {
      BndryExchange bx(m, part, plan, r.rank());
      std::vector<std::vector<double>> local(
          static_cast<std::size_t>(bx.nlocal()));
      std::vector<double*> ptrs(static_cast<std::size_t>(bx.nlocal()));
      for (int le = 0; le < bx.nlocal(); ++le) {
        local[static_cast<std::size_t>(le)] =
            input[static_cast<std::size_t>(bx.global_elem(le))];
        ptrs[static_cast<std::size_t>(le)] =
            local[static_cast<std::size_t>(le)].data();
      }
      bx.dss_levels(ptrs, 8, &r, mode);
      std::lock_guard<std::mutex> lock(mu);
      if (mode == BndryExchange::Mode::kOriginal) {
        copies_orig += bx.last_copy_bytes();
        msg_orig += bx.last_msg_bytes();
      } else {
        copies_overlap += bx.last_copy_bytes();
        msg_overlap += bx.last_msg_bytes();
      }
    });
  }
  EXPECT_EQ(msg_orig, msg_overlap);       // same communication volume
  EXPECT_GT(copies_orig, copies_overlap); // fewer memory copies (section 7.6)
  EXPECT_NEAR(static_cast<double>(copies_orig),
              3.0 * static_cast<double>(copies_overlap), 1.0);
}

TEST(Bndry, BoundaryElementsAreThoseTouchingAnotherRank) {
  auto m = mesh::CubedSphere::build(4, mesh::kEarthRadius);
  auto part = mesh::Partition::build(m, 6);
  auto plan = mesh::CommPlan::build(m, part);
  for (int r = 0; r < 6; ++r) {
    BndryExchange bx(m, part, plan, r);
    std::vector<int> want;  // local elements, ascending global id
    for (int le = 0; le < bx.nlocal(); ++le) {
      bool shared = false;
      for (int node : m.nodes(bx.global_elem(le))) {
        for (const auto& [e, k] : m.node_elems(node)) {
          shared = shared || part.owner(e) != r;
        }
      }
      if (shared) want.push_back(le);
    }
    std::sort(want.begin(), want.end(), [&](int a, int b) {
      return bx.global_elem(a) < bx.global_elem(b);
    });
    EXPECT_EQ(bx.boundary_elements(), want) << "rank " << r;
    // An SFC partition of 96 elements over 6 ranks has a nonempty
    // boundary and (usually) some interior.
    EXPECT_FALSE(bx.boundary_elements().empty());
  }
  EXPECT_TRUE(BndryExchange(m).boundary_elements().empty());
}

TEST(Bndry, VectorDssMatchesSequential) {
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  const int nlev = 2;
  const int nelem = m.nelem();
  auto u1 = make_field(nelem, nlev);
  auto u2 = make_field(nelem, nlev);
  for (auto& e : u2) {
    for (auto& x : e) x = 0.3 * x - 1.0;
  }
  // Scale down to wind-like magnitudes in contravariant units.
  for (auto* f : {&u1, &u2}) {
    for (auto& e : *f) {
      for (auto& x : e) x *= 1e-6;
    }
  }
  Field ru1 = u1, ru2 = u2;
  homme::ref::dss_vector_levels(m, ptrs(ru1), ptrs(ru2), nlev);
  run_dss(m, 3, nlev, BndryExchange::Mode::kOverlap, u1, &u2);
  EXPECT_TRUE(same_bits(u1, ru1));
  EXPECT_TRUE(same_bits(u2, ru2));
}

TEST(OneDss, EveryCopyOfEveryNodeIsBitIdenticalAtEveryRankCount) {
  // One scalar and one vector DSS at 1-13 ranks in both modes, on signed
  // fields with +-0 in them: every value equals the frozen whole-mesh
  // reference, and after the scalar DSS every copy of a node holds the
  // same bits. (Adding a rank's own partial sum first and its
  // neighbours' after left 4-32 node-levels per call whose copies
  // differed at 3 or more ranks.)
  const int nlev = 5;  // one pack and a tail at the native width
  for (int ne : {3, 4, 8}) {
    auto m = mesh::CubedSphere::build(ne, mesh::kEarthRadius);
    const unsigned seed = static_cast<unsigned>(ne);
    const Field f = signed_field(m.nelem(), nlev, seed);
    const Field u1 = signed_field(m.nelem(), nlev, seed + 100);
    const Field u2 = signed_field(m.nelem(), nlev, seed + 200);
    Field ref_f = f, ref_u1 = u1, ref_u2 = u2;
    homme::ref::dss_levels(m, ptrs(ref_f), nlev);
    homme::ref::dss_vector_levels(m, ptrs(ref_u1), ptrs(ref_u2), nlev);
    ASSERT_TRUE(continuous(m, ref_f, nlev));
    for (int nranks = 1; nranks <= 13; ++nranks) {
      for (auto mode :
           {BndryExchange::Mode::kOriginal, BndryExchange::Mode::kOverlap}) {
        SCOPED_TRACE("ne " + std::to_string(ne) + ", " +
                     std::to_string(nranks) + " ranks, " +
                     (mode == BndryExchange::Mode::kOverlap ? "overlap"
                                                            : "original"));
        Field got = f;
        run_dss(m, nranks, nlev, mode, got);
        EXPECT_TRUE(continuous(m, got, nlev));
        EXPECT_TRUE(same_bits(got, ref_f));
        Field g1 = u1, g2 = u2;
        run_dss(m, nranks, nlev, mode, g1, &g2);
        EXPECT_TRUE(same_bits(g1, ref_u1));
        EXPECT_TRUE(same_bits(g2, ref_u2));
      }
    }
  }
}

// The DSS's properties as a projection, one scalar per GLL point, at one
// rank (the whole-mesh exchange) and at several.
class OneDssProperties : public ::testing::TestWithParam<int> {};

double mass_integral(const mesh::CubedSphere& m, const Field& f) {
  double s = 0.0;
  for (int e = 0; e < m.nelem(); ++e) {
    for (int k = 0; k < kNpp; ++k) {
      s += m.geom(e).mass[static_cast<std::size_t>(k)] *
           f[static_cast<std::size_t>(e)][static_cast<std::size_t>(k)];
    }
  }
  return s;
}

TEST_P(OneDssProperties, PreservesConstantField) {
  auto m = mesh::CubedSphere::build(4, 1.0);
  Field f(static_cast<std::size_t>(m.nelem()), std::vector<double>(kNpp, 2.5));
  run_dss(m, GetParam(), 1, BndryExchange::Mode::kOverlap, f);
  for (const auto& e : f) {
    for (double v : e) EXPECT_NEAR(v, 2.5, 1e-13);
  }
}

TEST_P(OneDssProperties, MakesFieldContinuous) {
  // Discontinuous input: element id as value. Afterwards every copy of a
  // shared node holds the same bits.
  auto m = mesh::CubedSphere::build(3, 1.0);
  Field f(static_cast<std::size_t>(m.nelem()));
  for (int e = 0; e < m.nelem(); ++e) {
    f[static_cast<std::size_t>(e)].assign(kNpp, e);
  }
  run_dss(m, GetParam(), 1, BndryExchange::Mode::kOverlap, f);
  EXPECT_TRUE(continuous(m, f, 1));
}

TEST_P(OneDssProperties, IsIdempotent) {
  auto m = mesh::CubedSphere::build(3, 1.0);
  Field f(static_cast<std::size_t>(m.nelem()));
  for (int e = 0; e < m.nelem(); ++e) {
    for (int k = 0; k < kNpp; ++k) {
      f[static_cast<std::size_t>(e)].push_back(std::sin(e * kNpp + k));
    }
  }
  run_dss(m, GetParam(), 1, BndryExchange::Mode::kOverlap, f);
  const Field once = f;
  run_dss(m, GetParam(), 1, BndryExchange::Mode::kOverlap, f);
  for (std::size_t e = 0; e < f.size(); ++e) {
    for (std::size_t k = 0; k < kNpp; ++k) {
      EXPECT_NEAR(f[e][k], once[e][k], 1e-12);
    }
  }
}

TEST_P(OneDssProperties, ConservesMassWeightedIntegral) {
  auto m = mesh::CubedSphere::build(4, 1.0);
  Field f(static_cast<std::size_t>(m.nelem()));
  for (int e = 0; e < m.nelem(); ++e) {
    for (int k = 0; k < kNpp; ++k) {
      f[static_cast<std::size_t>(e)].push_back(std::cos(0.1 * (e * kNpp + k)));
    }
  }
  const double before = mass_integral(m, f);
  run_dss(m, GetParam(), 1, BndryExchange::Mode::kOverlap, f);
  EXPECT_NEAR(mass_integral(m, f), before, std::abs(before) * 1e-12 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(OneAndFiveRanks, OneDssProperties,
                         ::testing::Values(1, 5));

}  // namespace
