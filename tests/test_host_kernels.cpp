#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "homme/driver.hpp"
#include "homme/dss.hpp"
#include "homme/euler.hpp"
#include "homme/exchange.hpp"
#include "homme/init.hpp"
#include "homme/ops.hpp"
#include "homme/ref_kernels.hpp"
#include "homme/remap.hpp"
#include "homme/rhs.hpp"
#include "homme/scratch.hpp"
#include "homme/vpack.hpp"
#include "mesh/cubed_sphere.hpp"

namespace {

using homme::Dims;
using homme::fidx;
using mesh::kNpp;

// The vectorized kernels claim bit-identical-or-1e-12 agreement with the
// frozen scalar reference (homme::ref::*) across resolutions, level
// counts and moist/dry. These tests are that claim.

constexpr double kTol = 1e-12;

double rel_diff(double a, double b) {
  return std::abs(a - b) / std::max({std::abs(a), std::abs(b), 1e-300});
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (std::bit_cast<std::uint64_t>(a[k]) !=
        std::bit_cast<std::uint64_t>(b[k])) {
      return false;
    }
  }
  return true;
}

void expect_state_close(const homme::State& a, const homme::State& b,
                        const Dims& d, double tol) {
  double worst = 0.0;
  for (std::size_t e = 0; e < a.size(); ++e) {
    for (std::size_t f = 0; f < d.field_size(); ++f) {
      worst = std::max({worst, rel_diff(a[e].u1[f], b[e].u1[f]),
                        rel_diff(a[e].u2[f], b[e].u2[f]),
                        rel_diff(a[e].T[f], b[e].T[f]),
                        rel_diff(a[e].dp[f], b[e].dp[f])});
    }
    for (std::size_t f = 0; f < a[e].qdp.size(); ++f) {
      worst = std::max(worst, rel_diff(a[e].qdp[f], b[e].qdp[f]));
    }
  }
  EXPECT_LE(worst, tol);
}

/// A deformed but physical state: balanced flow plus smooth positive
/// perturbations of dp and the tracers so the remap has real work to do.
homme::State deformed_state(const mesh::CubedSphere& m, const Dims& d,
                            unsigned seed) {
  auto s = homme::solid_body_rotation(m, d, 40.0);
  homme::init_tracers(m, d, s);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> pert(-0.2, 0.2);
  for (auto& es : s) {
    auto dp = es.dp.mutable_span();
    auto T = es.T.mutable_span();
    auto qdp = es.qdp.mutable_span();
    for (std::size_t f = 0; f < d.field_size(); ++f) {
      dp[f] *= 1.0 + pert(rng);
      T[f] += 5.0 * pert(rng);
    }
    for (std::size_t f = 0; f < qdp.size(); ++f) {
      qdp[f] *= 1.0 + pert(rng);
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// vectorized vs scalar reference
// ---------------------------------------------------------------------------

TEST(HostKernels, ColumnScansBitIdenticalToReference) {
  for (int nlev : {10, 30, 72}) {
    auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
    Dims d;
    d.nlev = nlev;
    d.qsize = 1;
    auto s = deformed_state(m, d, 7u);
    const std::size_t fs = d.field_size();
    std::vector<double> p_ref(fs), phi_ref(fs), om_ref(fs);
    std::vector<double> p_new(fs), phi_new(fs), om_new(fs);
    for (const auto& es : s) {
      homme::ref::column_pressure(nlev, es.dp.data(), p_ref.data());
      homme::column_pressure(nlev, es.dp.data(), p_new.data());
      homme::ref::column_geopotential(nlev, es.T.data(), es.dp.data(),
                                      p_ref.data(), es.phis.data(),
                                      phi_ref.data());
      homme::column_geopotential(nlev, es.T.data(), es.dp.data(),
                                 p_new.data(), es.phis.data(),
                                 phi_new.data());
      homme::ref::column_omega(nlev, es.dp.data(), om_ref.data());
      homme::column_omega(nlev, es.dp.data(), om_new.data());
      for (std::size_t f = 0; f < fs; ++f) {
        // Same per-lane op sequence: the packs change data movement, not
        // arithmetic, so the scans agree to the bit.
        ASSERT_EQ(p_ref[f], p_new[f]);
        ASSERT_EQ(phi_ref[f], phi_new[f]);
        ASSERT_EQ(om_ref[f], om_new[f]);
      }
    }
  }
}

TEST(HostKernels, TileOperatorsBitIdenticalToReference) {
  // Real metric terms from elements on all six faces, and seeded random
  // tiles with signed values, exact zeros and one all-zero tile.
  auto m = mesh::CubedSphere::build(3, mesh::kEarthRadius);
  std::mt19937 rng(13u);
  std::uniform_real_distribution<double> val(-3.0, 3.0);
  int faces = 0;
  for (int e = 0; e < m.nelem(); e += 4) {
    faces |= 1 << m.elem_coords(e)[0];
    const auto& g = m.geom(e);
    for (int trial = 0; trial < 6; ++trial) {
      double s[kNpp], u1[kNpp], u2[kNpp];
      for (int k = 0; k < kNpp; ++k) {
        const bool zero = trial == 0 || (k + trial) % 5 == 0;
        s[k] = zero ? 0.0 : val(rng);
        u1[k] = zero ? 0.0 : 40.0 * val(rng);
        u2[k] = (k + trial) % 7 == 0 ? 0.0 : 40.0 * val(rng);
      }
      double a1[kNpp], a2[kNpp], b1[kNpp], b2[kNpp];
      homme::ref::deriv_ref(s, a1, a2);
      homme::deriv_ref(s, b1, b2);
      EXPECT_TRUE(same_bits(a1, b1) && same_bits(a2, b2))
          << "deriv_ref, elem " << e << " trial " << trial;
      homme::ref::divergence_sphere(g, u1, u2, a1);
      homme::divergence_sphere(g, u1, u2, b1);
      EXPECT_TRUE(same_bits(a1, b1))
          << "divergence_sphere, elem " << e << " trial " << trial;
      homme::ref::vorticity_sphere(g, u1, u2, a1);
      homme::vorticity_sphere(g, u1, u2, b1);
      EXPECT_TRUE(same_bits(a1, b1))
          << "vorticity_sphere, elem " << e << " trial " << trial;
      homme::ref::laplace_sphere_wk(g, s, a1);
      homme::laplace_sphere_wk(g, s, b1);
      EXPECT_TRUE(same_bits(a1, b1))
          << "laplace_sphere_wk, elem " << e << " trial " << trial;
    }
  }
  EXPECT_EQ(faces, 0x3f);
}

TEST(HostKernels, FrameRotationsBitIdenticalToReference) {
  // Frames from elements on all six faces, and seeded random tiles with
  // signed values, exact zeros and one all-zero tile.
  auto m = mesh::CubedSphere::build(3, mesh::kEarthRadius);
  std::mt19937 rng(17u);
  std::uniform_real_distribution<double> val(-3.0, 3.0);
  int faces = 0;
  for (int e = 0; e < m.nelem(); e += 4) {
    faces |= 1 << m.elem_coords(e)[0];
    const auto& g = m.geom(e);
    for (int trial = 0; trial < 6; ++trial) {
      double u1[kNpp], u2[kNpp], ux[kNpp], uy[kNpp], uz[kNpp], av[kNpp];
      for (int k = 0; k < kNpp; ++k) {
        const bool zero = trial == 0 || (k + trial) % 5 == 0;
        u1[k] = zero ? 0.0 : 40.0 * val(rng);
        u2[k] = (k + trial) % 7 == 0 ? 0.0 : 40.0 * val(rng);
        ux[k] = zero ? 0.0 : 40.0 * val(rng);
        uy[k] = (k + trial) % 3 == 0 ? 0.0 : 40.0 * val(rng);
        uz[k] = 40.0 * val(rng);
        av[k] = (k + trial) % 4 == 0 ? 0.0 : 1e-4 * val(rng);
      }
      double a1[kNpp], a2[kNpp], a3[kNpp], b1[kNpp], b2[kNpp], b3[kNpp];
      homme::ref::contra_to_cart(g, u1, u2, a1, a2, a3);
      homme::contra_to_cart(g, u1, u2, b1, b2, b3);
      EXPECT_TRUE(same_bits(a1, b1) && same_bits(a2, b2) &&
                  same_bits(a3, b3))
          << "contra_to_cart, elem " << e << " trial " << trial;
      homme::ref::cart_to_contra(g, ux, uy, uz, a1, a2);
      homme::cart_to_contra(g, ux, uy, uz, b1, b2);
      EXPECT_TRUE(same_bits(a1, b1) && same_bits(a2, b2))
          << "cart_to_contra, elem " << e << " trial " << trial;
      homme::ref::coriolis_vorticity_term(g, av, u1, u2, a1, a2);
      homme::coriolis_vorticity_term(g, av, u1, u2, b1, b2);
      EXPECT_TRUE(same_bits(a1, b1) && same_bits(a2, b2))
          << "coriolis_vorticity_term, elem " << e << " trial " << trial;
    }
  }
  EXPECT_EQ(faces, 0x3f);
}

TEST(HostKernels, DssBitIdenticalToReference) {
  // The live DSS (the transposed block body; the vector DSS with its
  // rotations folded in) against the frozen scalar DSS, whole mesh, at
  // level counts below, at and around the pack width. The data are signed,
  // with +-0 sprinkled in and one all +0 and one all -0 element, and each
  // DSS is applied twice (the second pass assembles an assembled field).
  for (int ne : {2, 3, 4}) {
    auto m = mesh::CubedSphere::build(ne, mesh::kEarthRadius);
    const std::size_t nelem = static_cast<std::size_t>(m.nelem());
    for (int nlev : {1, 3, 4, 5, 16, 30}) {
      const std::size_t fs = static_cast<std::size_t>(nlev) * kNpp;
      std::mt19937 rng(static_cast<unsigned>(100 * ne + nlev));
      std::uniform_real_distribution<double> val(-1.0, 1.0);
      auto field = [&] {
        std::vector<double> f(nelem * fs);
        for (std::size_t i = 0; i < f.size(); ++i) {
          f[i] = i % 7 == 0 ? (i % 2 == 0 ? 0.0 : -0.0) : val(rng);
        }
        std::fill(f.begin() + fs, f.begin() + 2 * fs, 0.0);
        std::fill(f.begin() + 2 * fs, f.begin() + 3 * fs, -0.0);
        return f;
      };
      auto ptrs = [&](std::vector<double>& f) {
        std::vector<double*> p(nelem);
        for (std::size_t e = 0; e < nelem; ++e) p[e] = f.data() + e * fs;
        return p;
      };
      std::vector<double> a = field(), b = a;
      std::vector<double> a1 = field(), a2 = field(), b1 = a1, b2 = a2;
      auto pa = ptrs(a), pb = ptrs(b);
      auto pa1 = ptrs(a1), pa2 = ptrs(a2), pb1 = ptrs(b1), pb2 = ptrs(b2);
      for (int pass = 0; pass < 2; ++pass) {
        homme::ref::dss_levels(m, pa, nlev);
        homme::dss_levels(m, pb, nlev);
        EXPECT_TRUE(same_bits(a, b))
            << "scalar, ne " << ne << " nlev " << nlev << " pass " << pass;
        homme::ref::dss_vector_levels(m, pa1, pa2, nlev);
        homme::dss_vector_levels(m, pb1, pb2, nlev);
        EXPECT_TRUE(same_bits(a1, b1) && same_bits(a2, b2))
            << "vector, ne " << ne << " nlev " << nlev << " pass " << pass;
      }
    }
  }
}

TEST(HostKernels, RhsMatchesReferenceAcrossConfigs) {
  for (int ne : {2, 4}) {
    for (int nlev : {10, 30, 72}) {
      for (bool moist : {false, true}) {
        auto m = mesh::CubedSphere::build(ne, mesh::kEarthRadius);
        Dims d;
        d.nlev = nlev;
        d.qsize = 2;
        d.moist = moist;
        auto s = deformed_state(m, d, 11u);
        const double dt = homme::Dycore::stable_dt(m);
        homme::State out_ref(s.size(), homme::ElementState(d));
        homme::State out_new(s.size(), homme::ElementState(d));
        homme::ref::compute_and_apply_rhs(m, d, s, s, dt, out_ref);
        homme::compute_and_apply_rhs(homme::Exchange(m), d, s, s, dt, out_new);
        expect_state_close(out_ref, out_new, d, kTol);
      }
    }
  }
}

TEST(HostKernels, EulerStepBitIdenticalToReference) {
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  const double dt = homme::Dycore::stable_dt(m);
  for (int nlev : {10, 30}) {
    for (int qsize : {1, 3}) {
      for (bool moist : {false, true}) {
        for (bool limit : {false, true}) {
          Dims d;
          d.nlev = nlev;
          d.qsize = qsize;
          d.moist = moist;
          auto a = deformed_state(m, d, 31u);
          // Some negative tracer mass, so the limiter has work to do.
          for (auto& es : a) {
            auto qdp = es.qdp.mutable_span();
            for (std::size_t f = 0; f < qdp.size(); f += 7) {
              qdp[f] = -0.3 * qdp[f];
            }
          }
          auto b = a;
          homme::ref::euler_step(m, d, a, dt, limit);
          homme::euler_step(homme::Exchange(m), d, b, dt, limit);
          for (std::size_t e = 0; e < a.size(); ++e) {
            for (std::size_t f = 0; f < a[e].qdp.size(); ++f) {
              ASSERT_EQ(a[e].qdp[f], b[e].qdp[f])
                  << "nlev " << nlev << " qsize " << qsize << " moist "
                  << moist << " limit " << limit << " elem " << e
                  << " value " << f;
            }
          }
        }
      }
    }
  }
}

TEST(HostKernels, VerticalRemapMatchesReferenceAcrossConfigs) {
  for (int ne : {2, 4}) {
    for (int nlev : {10, 30, 72}) {
      auto m = mesh::CubedSphere::build(ne, mesh::kEarthRadius);
      Dims d;
      d.nlev = nlev;
      d.qsize = 2;
      auto a = deformed_state(m, d, 23u);
      auto b = a;
      homme::ref::vertical_remap_local(d, a);
      homme::vertical_remap_local(d, b);
      expect_state_close(a, b, d, kTol);
    }
  }
}

TEST(HostKernels, RemapColumnMatchesReference) {
  std::mt19937 rng(5u);
  std::uniform_real_distribution<double> thick(0.5, 2.0);
  std::uniform_real_distribution<double> val(0.1, 3.0);
  for (int n : {10, 30, 72}) {
    std::vector<double> src(static_cast<std::size_t>(n)),
        tgt(static_cast<std::size_t>(n)), qa(static_cast<std::size_t>(n));
    double s_mass = 0.0, t_mass = 0.0;
    for (auto& v : src) s_mass += (v = thick(rng));
    for (auto& v : tgt) t_mass += (v = thick(rng));
    for (auto& v : tgt) v *= s_mass / t_mass;  // equal column mass
    for (auto& v : qa) v = val(rng);
    auto qb = qa;
    homme::ref::remap_column(src, tgt, qa);
    homme::remap_column(src, tgt, qb);
    for (std::size_t k = 0; k < qa.size(); ++k) {
      EXPECT_LE(rel_diff(qa[k], qb[k]), kTol);
    }
  }
}

TEST(HostKernels, RemapPlanBitIdenticalToReferenceAtItsEdges) {
  std::mt19937 rng(43u);
  std::uniform_real_distribution<double> thick(0.3, 2.5);
  std::uniform_real_distribution<double> val(0.1, 4.0);
  homme::ScratchArena arena;
  for (int nlev : {1, 2, 3, 16, 72}) {
    const std::size_t n = static_cast<std::size_t>(nlev);
    // Random source and target grids of one column mass.
    std::vector<double> src(n), tgt(n), above(n);
    double s_mass = 0.0, t_mass = 0.0;
    for (auto& v : src) s_mass += (v = thick(rng));
    for (auto& v : tgt) t_mass += (v = thick(rng));
    for (auto& v : tgt) v *= s_mass / t_mass;
    // Source layers of thickness 1, so the column total is nlev. The last
    // (up to) three target layers are tiny and the others carry a total
    // just above nlev, inside the 1e-8 mass tolerance: every interface
    // between the tiny layers lies at or above the source column top.
    std::vector<double> unit(n, 1.0);
    const std::size_t top = std::min<std::size_t>(3, n - 1);
    const double bulk = nlev * (1.0 + 4e-9) / static_cast<double>(n - top);
    for (std::size_t k = 0; k < n; ++k) above[k] = k + top < n ? bulk : 1e-10;

    std::vector<double> smooth(n), step(n), patchy(n);
    for (std::size_t k = 0; k < n; ++k) {
      smooth[k] = val(rng);
      // A jump of 100x: the slope at the jump is about 50x the secant on
      // its low side, so the Fritsch-Carlson limit (s > 9) fires.
      step[k] = k < n / 2 ? 1.0 : 100.0;
      // Zero layers give flat stretches of the cumulative integral.
      patchy[k] = k % 3 == 1 ? 0.0 : val(rng);
    }
    // Two constant fields: a linear cumulative integral, and one whose
    // every secant is 0.
    const std::vector<std::vector<double>> fields = {
        smooth, step, patchy, std::vector<double>(n, 2.75),
        std::vector<double>(n, 0.0)};

    struct Grid {
      const char* name;
      const std::vector<double>& src;
      const std::vector<double>& tgt;
    };
    arena.require(homme::ColumnRemapPlan::scratch_doubles(n));
    for (const Grid& g : {Grid{"random grids", src, tgt},
                          Grid{"identical grids", src, src},
                          Grid{"interfaces above the top", unit, above}}) {
      homme::ScratchArena::Frame frame(arena);
      // One plan serves every field, as in the model.
      const auto plan = homme::ColumnRemapPlan::checked(g.src, g.tgt, arena);
      for (std::size_t f = 0; f < fields.size(); ++f) {
        auto want = fields[f], got = fields[f], via_column = fields[f];
        homme::ref::remap_column(g.src, g.tgt, want);
        plan.apply(g.src, g.tgt, got);
        homme::remap_column(g.src, g.tgt, via_column);
        EXPECT_TRUE(same_bits(want, got))
            << g.name << ", nlev " << nlev << ", field " << f;
        EXPECT_TRUE(same_bits(want, via_column))
            << g.name << ", nlev " << nlev << ", field " << f;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// remap_column properties
// ---------------------------------------------------------------------------

TEST(RemapColumn, ConservesMassStaysPositiveAndBoundsOvershoot) {
  std::mt19937 rng(17u);
  std::uniform_real_distribution<double> thick(0.2, 3.0);
  std::uniform_real_distribution<double> val(0.0, 10.0);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 8 + trial % 40;
    std::vector<double> src(static_cast<std::size_t>(n)),
        tgt(static_cast<std::size_t>(n)), q(static_cast<std::size_t>(n));
    double s_mass = 0.0, t_mass = 0.0;
    for (auto& v : src) s_mass += (v = thick(rng));
    for (auto& v : tgt) t_mass += (v = thick(rng));
    for (auto& v : tgt) v *= s_mass / t_mass;
    for (auto& v : q) v = val(rng);
    const double hi = *std::max_element(q.begin(), q.end());
    double mass_in = 0.0;
    for (std::size_t k = 0; k < q.size(); ++k) mass_in += q[k] * src[k];

    homme::remap_column(src, tgt, q);

    double mass_out = 0.0;
    for (std::size_t k = 0; k < q.size(); ++k) mass_out += q[k] * tgt[k];
    EXPECT_NEAR(mass_out, mass_in, 1e-10 * std::max(1.0, mass_in));
    // Nonnegative data gives a monotone cumulative integral, so the
    // monotone fit keeps every target increment nonnegative; the
    // Fritsch-Carlson limiter caps the interpolant's derivative at 3x the
    // local cell average, so no target average exceeds 3x the data max.
    for (double v : q) {
      EXPECT_GE(v, -1e-12 * hi);
      EXPECT_LE(v, 3.0 * hi * (1.0 + 1e-12));
    }
  }
}

TEST(RemapColumn, IdentityRemapIsExactAndConstantsArePreserved) {
  std::mt19937 rng(29u);
  std::uniform_real_distribution<double> thick(0.3, 2.5);
  std::uniform_real_distribution<double> val(0.1, 4.0);
  for (int n : {8, 31, 72}) {
    std::vector<double> src(static_cast<std::size_t>(n)),
        tgt(static_cast<std::size_t>(n)), q(static_cast<std::size_t>(n));
    double s_mass = 0.0, t_mass = 0.0;
    for (auto& v : src) s_mass += (v = thick(rng));
    for (auto& v : q) v = val(rng);

    // src == tgt: every target interface is an interpolation node, so the
    // differenced cumulative integral returns the input up to the
    // cumsum/difference roundoff (which scales with total column mass).
    auto id = q;
    homme::remap_column(src, src, id);
    for (std::size_t k = 0; k < q.size(); ++k) {
      EXPECT_NEAR(id[k], q[k], 1e-12 * (1.0 + std::abs(q[k])));
    }

    // A constant profile has a linear cumulative integral; the monotone
    // cubic reproduces it on any target grid.
    for (auto& v : tgt) t_mass += (v = thick(rng));
    for (auto& v : tgt) v *= s_mass / t_mass;
    std::fill(q.begin(), q.end(), 2.75);
    homme::remap_column(src, tgt, q);
    for (double v : q) EXPECT_NEAR(v, 2.75, 1e-12 * 2.75);
  }
}

#ifdef NDEBUG
// In debug builds the retained assert aborts first; the typed error is
// the Release-mode surface.
TEST(RemapColumn, MassMismatchThrowsTypedError) {
  std::vector<double> src = {1.0, 1.0, 1.0, 1.0};
  std::vector<double> tgt = {1.0, 1.0, 1.0, 2.0};  // 33% more mass
  std::vector<double> q = {1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW(homme::remap_column(src, tgt, q), homme::RemapError);
}
#endif

TEST(RemapColumn, NonPositiveThicknessThrowsTypedError) {
  std::vector<double> src = {1.0, -1.0, 1.0, 1.0};
  std::vector<double> tgt = {0.5, 0.5, 0.5, 0.5};
  std::vector<double> q = {1.0, 1.0, 1.0, 1.0};
  EXPECT_THROW(homme::remap_column(src, tgt, q), homme::RemapError);
}

TEST(VerticalRemap, FaultCorruptedThicknessThrowsTypedError) {
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  Dims d;
  d.nlev = 8;
  d.qsize = 1;
  auto s = deformed_state(m, d, 3u);
  // An injected-fault-style corruption: one layer loses its mass. The old
  // path divided by it and silently spread NaN through qdp.
  s[1].dp.mutable_span()[fidx(3, 5)] = -s[1].dp[fidx(3, 5)];
  EXPECT_THROW(homme::vertical_remap_local(d, s), homme::RemapError);
}

// ---------------------------------------------------------------------------
// ScratchArena
// ---------------------------------------------------------------------------

TEST(ScratchArena, FramesReuseTheSameMemory) {
  homme::ScratchArena a;
  a.require(64, 4);
  double* first = nullptr;
  {
    homme::ScratchArena::Frame f(a);
    auto x = a.alloc(32);
    first = x.data();
    EXPECT_EQ(a.used(), 32u);
    EXPECT_EQ(a.depth(), 1);
  }
  EXPECT_EQ(a.used(), 0u);
  EXPECT_EQ(a.depth(), 0);
  {
    homme::ScratchArena::Frame f(a);
    auto y = a.alloc(16);
    // Same hot memory, call after call: that is the point of the arena.
    EXPECT_EQ(y.data(), first);
  }
  EXPECT_EQ(a.high_water(), 32u);
}

TEST(ScratchArena, NestedFramesRestoreInOrder) {
  homme::ScratchArena a;
  a.require(100);
  homme::ScratchArena::Frame outer(a);
  a.alloc(10);
  {
    homme::ScratchArena::Frame inner(a);
    a.alloc(50);
    EXPECT_EQ(a.used(), 60u);
    EXPECT_EQ(a.depth(), 2);
  }
  EXPECT_EQ(a.used(), 10u);
  EXPECT_EQ(a.depth(), 1);
  EXPECT_EQ(a.high_water(), 60u);
}

TEST(ScratchArena, OverflowThrowsInsteadOfReallocating) {
  homme::ScratchArena a;
  a.require(16, 2);
  homme::ScratchArena::Frame f(a);
  auto live = a.alloc(12);
  live[0] = 42.0;
  EXPECT_THROW(a.alloc(8), homme::ScratchOverflow);
  EXPECT_THROW(a.alloc_ptrs(3), homme::ScratchOverflow);
  // The live span was not invalidated by the failed request.
  EXPECT_EQ(live[0], 42.0);
}

TEST(ScratchArena, RequireWhileLiveThrows) {
  homme::ScratchArena a;
  a.require(16);
  homme::ScratchArena::Frame f(a);
  a.alloc(8);
  EXPECT_THROW(a.require(1024), homme::ScratchOverflow);
}

TEST(ScratchArena, AllocZeroClears) {
  homme::ScratchArena a;
  a.require(8);
  {
    homme::ScratchArena::Frame f(a);
    auto x = a.alloc(8);
    for (auto& v : x) v = 1.5;
  }
  homme::ScratchArena::Frame f(a);
  for (double v : a.alloc_zero(8)) EXPECT_EQ(v, 0.0);
}

// ---------------------------------------------------------------------------
// vpack
// ---------------------------------------------------------------------------

TEST(Vpack, ElementwiseOpsMatchScalar) {
  double a[homme::kVpackWidth], b[homme::kVpackWidth],
      out[homme::kVpackWidth];
  for (int i = 0; i < homme::kVpackWidth; ++i) {
    a[i] = 1.5 * (i + 1);
    b[i] = 0.25 * (i + 2);
  }
  const homme::vpack va = homme::vpack::load(a);
  const homme::vpack vb = homme::vpack::load(b);
  (va * vb + 2.0 * va - vb / va).store(out);
  for (int i = 0; i < homme::kVpackWidth; ++i) {
    EXPECT_EQ(out[i], a[i] * b[i] + 2.0 * a[i] - b[i] / a[i]);
  }
  (-va).store(out);
  for (int i = 0; i < homme::kVpackWidth; ++i) EXPECT_EQ(out[i], -a[i]);
  homme::vpack::fill(3.5).store(out);
  for (int i = 0; i < homme::kVpackWidth; ++i) EXPECT_EQ(out[i], 3.5);
}

TEST(Vpack, TransposeMovesEveryLane) {
  using homme::vpack;
  constexpr int kW = homme::kVpackWidth;
  vpack b[kW];
  double row[kW];
  for (int r = 0; r < kW; ++r) {
    for (int c = 0; c < kW; ++c) row[c] = 10.0 * r + c;
    b[r] = vpack::load(row);
  }
  vpack::transpose(b);
  for (int r = 0; r < kW; ++r) {
    for (int c = 0; c < kW; ++c) EXPECT_EQ(b[r][c], 10.0 * c + r);
  }
  vpack::transpose(b);
  for (int r = 0; r < kW; ++r) {
    for (int c = 0; c < kW; ++c) EXPECT_EQ(b[r][c], 10.0 * r + c);
  }
}

TEST(HostKernels, VpackScalarOperandsMatchLanes) {
  using homme::vpack;
  constexpr int kW = homme::kVpackWidth;
  const double inf = std::numeric_limits<double>::infinity();
  const double sub = 3.0 * std::numeric_limits<double>::denorm_min();
  std::vector<double> vals = {0.0,  -0.0, inf,  -inf,
                              std::numeric_limits<double>::quiet_NaN(),
                              sub,  -sub};
  std::mt19937 rng(47u);
  std::uniform_real_distribution<double> val(-1e3, 1e3);
  for (int i = 0; i < 9; ++i) vals.push_back(val(rng));
  auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  double out[kW];
  for (double s : vals) {
    // fill(-0.0) must keep its sign: a 0.0 + x broadcast would not.
    vpack::fill(s).store(out);
    for (int i = 0; i < kW; ++i) EXPECT_EQ(bits(out[i]), bits(s)) << s;
    for (std::size_t first = 0; first < vals.size(); ++first) {
      double lanes[kW];
      for (int i = 0; i < kW; ++i) {
        lanes[i] = vals[(first + static_cast<std::size_t>(i)) % vals.size()];
      }
      const vpack p = vpack::load(lanes);
      (s * p).store(out);
      for (int i = 0; i < kW; ++i) {
        EXPECT_EQ(bits(out[i]), bits(s * lanes[i])) << s << " * " << lanes[i];
      }
      (p * s).store(out);
      for (int i = 0; i < kW; ++i) {
        EXPECT_EQ(bits(out[i]), bits(lanes[i] * s)) << lanes[i] << " * " << s;
      }
      (p + s).store(out);
      for (int i = 0; i < kW; ++i) {
        EXPECT_EQ(bits(out[i]), bits(lanes[i] + s)) << lanes[i] << " + " << s;
      }
    }
  }
}

}  // namespace
