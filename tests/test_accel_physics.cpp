#include "accel/physics_acc.hpp"

#include <gtest/gtest.h>

#include <string>

#include "accel/hypervis_acc.hpp"
#include "accel/packed.hpp"
#include "homme/state.hpp"
#include "physics/driver.hpp"
#include "scenario/experiments.hpp"
#include "alloc_counter.hpp"

namespace {

/// The moist aquaplanet state at ne2 with two tracers (tracer 0 is the
/// physics' humidity), with every scheme given work: the humidity tripled,
/// so the lowest levels are supersaturated, and the surface layer of every
/// third column 12 K warmer, so dry adjustment mixes it.
struct MoistState {
  mesh::CubedSphere m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::Dims d;
  homme::State s;

  explicit MoistState(int nlev) {
    d.nlev = nlev;
    d.qsize = 2;
    s = scenario::aquaplanet_init_spec().build(m, d);
    for (homme::ElementState& es : s) {
      for (double& q : es.q_mut(0, d)) q *= 3.0;
      auto T = es.T.mutable_span();
      for (int k = 0; k < mesh::kNpp; k += 3) {
        T[homme::fidx(nlev - 1, k)] += 12.0;
      }
    }
  }
};

using Port = sw::KernelStats (*)(sw::CoreGroup&, phys::PackedColumns&,
                                 const phys::PhysicsConfig&, double);

/// Two physics steps of \p port on \p s: pack, port, unpack.
void port_steps(Port port, const phys::PhysicsDriver& pd, homme::State& s,
                double dt) {
  sw::CoreGroup cg;
  phys::PackedColumns img;
  for (int step = 0; step < 2; ++step) {
    pd.pack(s, img);
    port(cg, img, pd.config(), dt);
    pd.unpack(img, s);
  }
}

/// Both ports against two PhysicsDriver::step calls under \p cfg, bit for
/// bit on every field the driver writes.
void expect_ports_match_driver(const MoistState& ms,
                               const phys::PhysicsConfig& cfg) {
  constexpr double dt = 900.0;
  phys::PhysicsDriver pd(ms.m, ms.d, cfg);
  homme::State host = ms.s;
  for (int step = 0; step < 2; ++step) pd.step(host, dt);
  for (const auto& [name, port] :
       {std::pair{"openacc", Port{&accel::physics_openacc}},
        std::pair{"athread", Port{&accel::physics_athread}}}) {
    SCOPED_TRACE(name);
    homme::State s = ms.s;
    port_steps(port, pd, s, dt);
    for (std::size_t e = 0; e < s.size(); ++e) {
      ASSERT_TRUE(s[e].T == host[e].T) << "elem " << e;
      ASSERT_TRUE(s[e].u1 == host[e].u1) << "elem " << e;
      ASSERT_TRUE(s[e].u2 == host[e].u2) << "elem " << e;
      ASSERT_TRUE(s[e].qdp == host[e].qdp) << "elem " << e;
    }
  }
}

TEST(PhysicsAcc, PortsMatchHostDriver) {
  for (int nlev : {10, 30}) {
    SCOPED_TRACE("nlev " + std::to_string(nlev));
    const MoistState ms(nlev);
    {
      SCOPED_TRACE("default config");
      expect_ports_match_driver(ms, phys::PhysicsConfig{});
    }
    {
      SCOPED_TRACE("katrina config");
      expect_ports_match_driver(
          ms, scenario::katrina_physics_cfg(tc::TcParams{}));
    }
  }
}

TEST(PhysicsAcc, PortsFollowSchemeSwitches) {
  const MoistState ms(16);
  homme::State all = ms.s;
  phys::PhysicsDriver(ms.m, ms.d).step(all, 900.0);
  for (bool phys::PhysicsConfig::*scheme :
       {&phys::PhysicsConfig::radiation, &phys::PhysicsConfig::convection,
        &phys::PhysicsConfig::condensation,
        &phys::PhysicsConfig::surface_pbl}) {
    phys::PhysicsConfig cfg;
    cfg.*scheme = false;
    // The scheme changes this state, so a port that ran it anyway would
    // not match the driver.
    homme::State off = ms.s;
    phys::PhysicsDriver(ms.m, ms.d, cfg).step(off, 900.0);
    bool differs = false;
    for (std::size_t e = 0; e < off.size(); ++e) {
      differs = differs || !(off[e].T == all[e].T) ||
                !(off[e].u1 == all[e].u1) || !(off[e].qdp == all[e].qdp);
    }
    EXPECT_TRUE(differs);
    expect_ports_match_driver(ms, cfg);
  }
}

TEST(PhysicsAcc, SuiteActuallyChangesTheState) {
  const MoistState ms(16);
  const phys::PhysicsDriver pd(ms.m, ms.d);
  phys::PackedColumns img;
  pd.pack(ms.s, img);
  const phys::PackedColumns before = img;
  sw::CoreGroup cg;
  accel::physics_athread(cg, img, pd.config(), 1800.0);
  EXPECT_NE(img.t, before.t);
  EXPECT_NE(img.q, before.q);
  EXPECT_NE(img.u, before.u);
  EXPECT_NE(img.v, before.v);
  EXPECT_EQ(img.dp, before.dp);
}

TEST(PhysicsAcc, AthreadStagesColumnsOnce) {
  const MoistState ms(24);
  const phys::PhysicsDriver pd(ms.m, ms.d);
  phys::PackedColumns base;
  pd.pack(ms.s, base);
  sw::CoreGroup cg;
  auto acc = base;
  auto acc_stats = accel::physics_openacc(cg, acc, pd.config(), 1800.0);
  auto ath = base;
  auto ath_stats = accel::physics_athread(cg, ath, pd.config(), 1800.0);
  // Four per-scheme regions re-stage everything: ~4x the traffic.
  const double ratio =
      static_cast<double>(acc_stats.totals.total_dma_bytes()) /
      static_cast<double>(ath_stats.totals.total_dma_bytes());
  EXPECT_NEAR(ratio, 4.0, 0.5);
  EXPECT_LT(ath_stats.seconds, acc_stats.seconds);
}

TEST(PhysicsAcc, ColumnsAreIndependent) {
  // A column's result does not depend on the other columns of the image
  // — the property that makes CPE column-batching legal.
  const MoistState ms(12);
  const phys::PhysicsDriver pd(ms.m, ms.d);
  phys::PackedColumns a;
  pd.pack(ms.s, a);
  constexpr int kCol = 7;
  phys::PackedColumns b = a;
  for (int col = 0; col < b.ncols; ++col) {
    if (col == kCol) continue;
    for (int l = 0; l < b.nlev; ++l) {
      const std::size_t i = b.off(col) + static_cast<std::size_t>(l);
      b.t[i] += 5.0;
      b.q[i] *= 2.0;
      b.u[i] = -b.u[i];
    }
  }
  sw::CoreGroup cg;
  accel::physics_athread(cg, a, pd.config(), 1800.0);
  accel::physics_athread(cg, b, pd.config(), 1800.0);
  for (int l = 0; l < a.nlev; ++l) {
    const std::size_t i = a.off(kCol) + static_cast<std::size_t>(l);
    EXPECT_EQ(a.t[i], b.t[i]);
    EXPECT_EQ(a.q[i], b.q[i]);
    EXPECT_EQ(a.u[i], b.u[i]);
    EXPECT_EQ(a.v[i], b.v[i]);
  }
}

TEST(PhysicsAcc, WarmAthreadCallReusesOneColumn) {
  // ne8 x 16 levels: 6,144 columns, each run through every scheme on the
  // host thread's one phys::Column rather than a fresh one per column
  // and scheme.
  const mesh::CubedSphere m = mesh::CubedSphere::build(8, mesh::kEarthRadius);
  homme::Dims d;
  d.nlev = 16;
  d.qsize = 1;
  const phys::PhysicsDriver pd(m, d);
  phys::PackedColumns img;
  pd.pack(scenario::aquaplanet_init_spec().build(m, d), img);
  sw::CoreGroup cg;
  accel::physics_athread(cg, img, pd.config(), 1800.0);  // cold
  alloc_counter::arm();
  accel::physics_athread(cg, img, pd.config(), 1800.0);
  const std::size_t allocs = alloc_counter::disarm();
  EXPECT_EQ(img.ncols, 6144);
  EXPECT_LT(allocs, static_cast<std::size_t>(img.ncols));
}

TEST(HypervisAcc, WarmAthreadLaunchAllocatesLessThanOnePerElement) {
  // A 384-element dp2 launch (the ne8 mesh's count) on a warm core group:
  // the kernel names the fields it updates without building a list per
  // element, so its allocations stay below one per element.
  constexpr int nelem = 384;
  homme::Dims d;
  d.nlev = 8;
  d.qsize = 1;
  const accel::PackedGeometry g = accel::PackedGeometry::pack(
      mesh::CubedSphere::build(2, mesh::kEarthRadius), nelem);
  homme::State s = accel::synthetic_state(d, nelem);
  sw::CoreGroup cg;
  accel::hypervis_athread(cg, d, s, g, accel::HvKernel::kDp2);  // cold
  alloc_counter::arm();
  accel::hypervis_athread(cg, d, s, g, accel::HvKernel::kDp2);
  const std::size_t allocs = alloc_counter::disarm();
  EXPECT_LT(allocs, static_cast<std::size_t>(nelem));
}

TEST(PhysicsAcc, LdmHoldsOneColumnComfortably) {
  // 6 arrays x 128 levels x 8 bytes = 6 KB: a column batch fits the LDM
  // with room to spare, which is why physics ports far more easily than
  // the dycore (the paper's experience).
  const MoistState ms(128);
  const phys::PhysicsDriver pd(ms.m, ms.d);
  phys::PackedColumns ath;
  pd.pack(ms.s, ath);
  sw::CoreGroup cg;
  auto stats = accel::physics_athread(cg, ath, pd.config(), 1800.0);
  EXPECT_LT(stats.totals.ldm_peak_bytes, sw::kLdmBytes / 4);
}

}  // namespace
