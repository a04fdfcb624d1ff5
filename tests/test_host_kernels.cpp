#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
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
      // lap may be s: a biharmonic writes its second Laplacian over its
      // first.
      std::copy(s, s + kNpp, b2);
      homme::laplace_sphere_wk(g, b2, b2);
      EXPECT_TRUE(same_bits(a1, b2))
          << "laplace_sphere_wk in place, elem " << e << " trial " << trial;
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
  // rotations folded in), as the one-rank exchange runs it over the whole
  // mesh, against the frozen scalar DSS, at level counts below, at and
  // around the pack width. The data are signed, with +-0 sprinkled in
  // and one all +0 and one all -0 element, and each DSS is applied twice
  // (the second pass assembles an assembled field).
  for (int ne : {2, 3, 4}) {
    auto m = mesh::CubedSphere::build(ne, mesh::kEarthRadius);
    homme::BndryExchange bx(m);
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
        bx.dss_levels(pb, nlev);
        EXPECT_TRUE(same_bits(a, b))
            << "scalar, ne " << ne << " nlev " << nlev << " pass " << pass;
        homme::ref::dss_vector_levels(m, pa1, pa2, nlev);
        bx.dss_vector_levels(pb1, pb2, nlev);
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
        homme::BndryExchange bx(m);
        Dims d;
        d.nlev = nlev;
        d.qsize = 2;
        d.moist = moist;
        auto s = deformed_state(m, d, 11u);
        const double dt = homme::Dycore::stable_dt(m);
        homme::State out_ref(s.size(), homme::ElementState(d));
        homme::State out_new(s.size(), homme::ElementState(d));
        homme::ref::compute_and_apply_rhs(m, d, s, s, dt, out_ref);
        homme::compute_and_apply_rhs(homme::Exchange(bx), d, s, dt, out_new);
        expect_state_close(out_ref, out_new, d, kTol);
      }
    }
  }
}

TEST(HostKernels, EulerStepBitIdenticalToReference) {
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::BndryExchange bx(m);
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
          homme::euler_step(homme::Exchange(bx), d, b, dt, limit);
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

TEST(HostKernels, LimiterBitIdenticalToReference) {
  // Level l takes case l % 7, so every vpack of four levels mixes the
  // limiter's branches across its lanes.
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  const mesh::ElementGeom& g = m.geom(5);
  std::mt19937 rng(7u);
  std::uniform_real_distribution<double> mag(0.1, 2.0);
  auto level_value = [&](int c, int k) {
    const double x = mag(rng);
    switch (c) {
      case 0: return x;                       // all positive: untouched
      case 1: return k % 5 == 0 ? -0.3 * x : x;  // a few negative: rescale
      case 2: return -x;                      // all negative: clip
      case 3: return k % 2 == 0 ? -x : 0.2 * x;  // net negative: clip
      case 4: return k % 3 == 0 ? 0.0 : -0.0;    // mass 0: clip keeps -0
      case 5: return k % 4 == 0 ? -0.0 : x;   // -0 and positive: untouched
      default: return k % 3 == 0 ? -0.0 : (k % 3 == 1 ? -0.5 * x : x);
    }
  };
  for (int nlev : {1, 3, 4, 5, 16, 30}) {
    std::vector<double> a(static_cast<std::size_t>(nlev) * kNpp);
    for (int l = 0; l < nlev; ++l) {
      for (int k = 0; k < kNpp; ++k) a[fidx(l, k)] = level_value(l % 7, k);
    }
    std::vector<double> b = a;
    homme::ref::positivity_limiter(g, nlev, a);
    homme::positivity_limiter(g, nlev, b);
    EXPECT_TRUE(same_bits(a, b)) << "nlev " << nlev;
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

TEST(HostKernels, RemapLanesMatchColumnsBitForBit) {
  // RemapPlanBitIdenticalToReferenceAtItsEdges's grids and fields, one
  // (grid, field) pair per lane of a vpack plan, each lane against
  // ref::remap_column on its own column.
  using homme::vpack;
  constexpr int kW = vpack::width;
  std::mt19937 rng(43u);
  std::uniform_real_distribution<double> thick(0.3, 2.5);
  std::uniform_real_distribution<double> val(0.1, 4.0);
  homme::ScratchArena arena;
  for (int nlev : {1, 2, 3, 16, 72}) {
    const std::size_t n = static_cast<std::size_t>(nlev);
    std::vector<double> src(n), tgt(n), above(n);
    double s_mass = 0.0, t_mass = 0.0;
    for (auto& v : src) s_mass += (v = thick(rng));
    for (auto& v : tgt) t_mass += (v = thick(rng));
    for (auto& v : tgt) v *= s_mass / t_mass;
    std::vector<double> unit(n, 1.0);
    const std::size_t top = std::min<std::size_t>(3, n - 1);
    const double bulk = nlev * (1.0 + 4e-9) / static_cast<double>(n - top);
    for (std::size_t k = 0; k < n; ++k) above[k] = k + top < n ? bulk : 1e-10;
    std::vector<double> smooth(n), step(n), patchy(n);
    for (std::size_t k = 0; k < n; ++k) {
      smooth[k] = val(rng);
      step[k] = k < n / 2 ? 1.0 : 100.0;
      patchy[k] = k % 3 == 1 ? 0.0 : val(rng);
    }
    const std::vector<std::vector<double>> fields = {
        smooth, step, patchy, std::vector<double>(n, 2.75),
        std::vector<double>(n, 0.0)};
    const std::vector<std::pair<const std::vector<double>*,
                                const std::vector<double>*>>
        grids = {{&src, &tgt}, {&src, &src}, {&unit, &above}};

    const std::size_t pairs = grids.size() * fields.size();
    for (std::size_t first = 0; first < pairs; first += kW) {
      homme::ScratchArena::Frame frame(arena);
      // Lane i of level l at l * kW + i, as in a tile row.
      double* xs = arena.alloc(kW * (n + 1)).data();
      double* xt = arena.alloc(kW * (n + 1)).data();
      double* sdp = arena.alloc(kW * n).data();
      double* tdp = arena.alloc(kW * n).data();
      double* q = arena.alloc(kW * n).data();
      std::vector<std::vector<double>> want;
      for (std::size_t i = 0; i < kW; ++i) {
        const std::size_t pair = (first + i) % pairs;
        const auto& g = grids[pair / fields.size()];
        want.push_back(fields[pair % fields.size()]);
        homme::ref::remap_column(*g.first, *g.second, want.back());
        xs[i] = 0.0;
        xt[i] = 0.0;
        for (std::size_t l = 0; l < n; ++l) {
          sdp[l * kW + i] = (*g.first)[l];
          tdp[l * kW + i] = (*g.second)[l];
          q[l * kW + i] = fields[pair % fields.size()][l];
          xs[(l + 1) * kW + i] = xs[l * kW + i] + (*g.first)[l];
          xt[(l + 1) * kW + i] = xt[l * kW + i] + (*g.second)[l];
        }
      }
      const homme::BasicColumnRemapPlan<vpack> plan(xs, xt, kW, n, arena);
      plan.apply(sdp, tdp, q, kW);
      for (std::size_t i = 0; i < kW; ++i) {
        std::vector<double> got(n);
        for (std::size_t l = 0; l < n; ++l) got[l] = q[l * kW + i];
        EXPECT_TRUE(same_bits(want[i], got))
            << "nlev " << nlev << ", grid " << (first + i) % pairs / 5
            << ", field " << (first + i) % pairs % 5;
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
  auto clean = s;
  // An injected-fault-style corruption: one layer loses its mass. The old
  // path divided by it and silently spread NaN through qdp.
  s[1].dp.mutable_span()[fidx(3, 5)] = -s[1].dp[fidx(3, 5)];
  const auto input = s;
  try {
    homme::vertical_remap_local(d, s);
    ADD_FAILURE() << "no RemapError";
  } catch (const homme::RemapError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("at level 3 of element 1 column 5"),
              std::string::npos)
        << what;
  }
  // The columns before the failing one are remapped, the rest untouched.
  homme::vertical_remap_local(d, clean);
  auto column_equals = [&](const homme::State& want, std::size_t e, int k) {
    for (int lev = 0; lev < d.nlev; ++lev) {
      const std::size_t f = fidx(lev, k);
      if (s[e].u1[f] != want[e].u1[f] || s[e].u2[f] != want[e].u2[f] ||
          s[e].T[f] != want[e].T[f] || s[e].dp[f] != want[e].dp[f] ||
          s[e].qdp[f] != want[e].qdp[f]) {
        return false;
      }
    }
    return true;
  };
  for (std::size_t e = 0; e < s.size(); ++e) {
    for (int k = 0; k < kNpp; ++k) {
      const bool remapped = e == 0 || (e == 1 && k < 5);
      EXPECT_TRUE(column_equals(remapped ? clean : input, e, k))
          << "element " << e << " column " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// ScratchArena
// ---------------------------------------------------------------------------

TEST(ScratchArena, FramesReuseTheSameMemory) {
  homme::ScratchArena a;
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

TEST(ScratchArena, GrowthLeavesLiveSpansInPlace) {
  homme::ScratchArena a;
  homme::ScratchArena::Frame f(a);
  const std::span<double> live = a.alloc(12);
  const std::span<double*> table = a.alloc_ptrs(2);
  for (std::size_t i = 0; i < live.size(); ++i) live[i] = 1.5 * i;
  table[0] = live.data();
  table[1] = live.data() + 11;
  // Far more than the arena holds: it takes new blocks under the live
  // spans, and writing them all touches neither.
  const std::span<double> big = a.alloc(1 << 16);
  const std::span<double*> more = a.alloc_ptrs(1 << 10);
  std::fill(big.begin(), big.end(), -1.0);
  std::fill(more.begin(), more.end(), nullptr);
  EXPECT_EQ(a.used(), 12u + (1u << 16));
  EXPECT_GE(a.capacity(), a.used());
  for (std::size_t i = 0; i < live.size(); ++i) EXPECT_EQ(live[i], 1.5 * i);
  EXPECT_EQ(table[0], live.data());
  EXPECT_EQ(table[1], live.data() + 11);
}

TEST(ScratchArena, OutermostFrameFoldsIntoOneBlockOfTheHighWaterMark) {
  homme::ScratchArena a;
  auto frames = [&a] {
    homme::ScratchArena::Frame outer(a);
    double* first = a.alloc(100).data();
    a.alloc_ptrs(4);
    {
      homme::ScratchArena::Frame inner(a);
      a.alloc(1000);  // does not fit the first block
      a.alloc_ptrs(40);
    }
    a.alloc(500);
    return first;
  };
  frames();
  EXPECT_EQ(a.high_water(), 1100u);
  EXPECT_EQ(a.capacity(), 1100u);
  EXPECT_EQ(a.depth(), 0);

  alloc_counter::arm();
  const double* again = frames();
  {
    // The whole high-water mark in one span: one block holds it.
    homme::ScratchArena::Frame f(a);
    a.alloc(a.high_water());
  }
  const double* third = frames();
  EXPECT_EQ(alloc_counter::disarm(), 0u);
  EXPECT_EQ(again, third);
  EXPECT_EQ(a.capacity(), 1100u);
}

TEST(ScratchArena, AllocZeroClears) {
  homme::ScratchArena a;
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

TEST(Vpack, MasksMinMaxAndPerLaneCallsMatchScalar) {
  // The lane-generic helpers against the scalar forms they stand for,
  // on pairs that include NaN and signed zeros, whose side in
  // std::min/std::max is part of the bits.
  using homme::vpack;
  constexpr int kW = homme::kVpackWidth;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> vals = {0.0, -0.0, 1.5, -2.25, nan,
                                    std::numeric_limits<double>::infinity()};
  auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (std::size_t first = 0; first < vals.size() * vals.size();
       first += kW) {
    double a[kW], b[kW], out[kW];
    for (int i = 0; i < kW; ++i) {
      const std::size_t pair = (first + i) % (vals.size() * vals.size());
      a[i] = vals[pair / vals.size()];
      b[i] = vals[pair % vals.size()];
    }
    const vpack va = vpack::load(a), vb = vpack::load(b);
    auto expect_lanes = [&](const vpack& got, auto want, const char* what) {
      got.store(out);
      for (int i = 0; i < kW; ++i) {
        EXPECT_EQ(bits(out[i]), bits(want(a[i], b[i])))
            << what << "(" << a[i] << ", " << b[i] << ")";
      }
    };
    expect_lanes(homme::max(va, vb),
                 [](double x, double y) { return std::max(x, y); }, "max");
    expect_lanes(homme::min(va, vb),
                 [](double x, double y) { return std::min(x, y); }, "min");
    expect_lanes(homme::max(1.0, vb),
                 [](double, double y) { return std::max(1.0, y); }, "max1");
    const vpack::mask above = !(va <= vb), nonneg = vb >= 0.0;
    expect_lanes(homme::select(above & nonneg, va, vb),
                 [](double x, double y) {
                   return !(x <= y) && y >= 0.0 ? x : y;
                 },
                 "select");
    expect_lanes(
        homme::per_lane([](double x, double y) { return std::hypot(x, y); },
                        va, vb),
        [](double x, double y) { return std::hypot(x, y); }, "hypot");
    bool any_less = false;
    for (int i = 0; i < kW; ++i) any_less = any_less || a[i] < b[i];
    EXPECT_EQ(homme::any(va < vb), any_less);
    EXPECT_EQ(bits(homme::max(a[0], b[0])), bits(std::max(a[0], b[0])));
    EXPECT_EQ(bits(homme::min(a[0], b[0])), bits(std::min(a[0], b[0])));
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
