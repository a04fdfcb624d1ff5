// Parameterized sweeps of the Sunway kernel ports over model shapes:
// every configuration must keep the ports equivalent to the host
// kernels, keep the Athread traffic advantage, and stay inside the
// 64 KB LDM.

#include <gtest/gtest.h>

#include <stdexcept>

#include "accel/euler_acc.hpp"
#include "accel/hypervis_acc.hpp"
#include "accel/remap_acc.hpp"
#include "accel/rhs_acc.hpp"
#include "accel/table1.hpp"
#include "homme/remap.hpp"
#include "mesh/cubed_sphere.hpp"

namespace {

struct Shape {
  int nelem;
  int nlev;
  int qsize;
};

class AccelShapeSweep : public ::testing::TestWithParam<Shape> {
 protected:
  static homme::Dims dims() {
    homme::Dims d;
    d.nlev = GetParam().nlev;
    d.qsize = GetParam().qsize;
    return d;
  }
  static homme::State make() {
    return accel::synthetic_state(dims(), GetParam().nelem);
  }
  static accel::PackedGeometry geometry() {
    return accel::PackedGeometry::pack(donor(), GetParam().nelem);
  }
  static const mesh::CubedSphere& donor() {
    static const auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
    return m;
  }
};

TEST_P(AccelShapeSweep, EulerPortsAgreeAndFitLdm) {
  const homme::Dims d = dims();
  auto base = make();
  const auto geo = geometry();
  auto derived = accel::EulerDerived::make(d, GetParam().nelem);
  auto ref = base;
  accel::euler_host(donor(), d, ref);
  sw::CoreGroup cg;
  auto acc = base;
  auto acc_stats = accel::euler_openacc(cg, d, acc, geo, derived);
  auto ath = base;
  auto ath_stats = accel::euler_athread(cg, d, ath, geo, derived);
  EXPECT_EQ(accel::state_max_rel_diff(ref, acc), 0.0);
  EXPECT_EQ(accel::state_max_rel_diff(ref, ath), 0.0);
  if (GetParam().qsize >= 2) {
    // LDM reuse needs at least two tracers to amortize the shared-array
    // loads; with one tracer the layer-split even re-reads the metric
    // tile per CPE row, so the comparison only holds from qsize >= 2.
    EXPECT_LE(ath_stats.totals.total_dma_bytes(),
              acc_stats.totals.total_dma_bytes());
  }
  EXPECT_LE(acc_stats.totals.ldm_peak_bytes, sw::kLdmBytes);
  EXPECT_LE(ath_stats.totals.ldm_peak_bytes, sw::kLdmBytes);
}

TEST_P(AccelShapeSweep, RemapPortsAgree) {
  const homme::Dims d = dims();
  auto base = make();
  auto ref = base;
  homme::vertical_remap_local(d, ref);
  sw::CoreGroup cg;
  auto acc = base;
  accel::remap_openacc(cg, d, acc);
  auto ath = base;
  auto ath_stats = accel::remap_athread(cg, d, ath);
  EXPECT_EQ(accel::state_max_rel_diff(ref, acc), 0.0);
  EXPECT_EQ(accel::state_max_rel_diff(ref, ath), 0.0);
  EXPECT_LE(ath_stats.totals.ldm_peak_bytes, sw::kLdmBytes);
}

TEST_P(AccelShapeSweep, HypervisDp2PortsAgree) {
  const homme::Dims d = dims();
  auto base = make();
  auto ref = base;
  accel::hypervis_host(donor(), d, ref, accel::HvKernel::kDp2);
  sw::CoreGroup cg;
  auto ath = base;
  accel::hypervis_athread(cg, d, ath, geometry(), accel::HvKernel::kDp2);
  EXPECT_EQ(accel::state_max_rel_diff(ref, ath), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AccelShapeSweep,
    ::testing::Values(Shape{1, 8, 1},     // single element, minimal tracer
                      Shape{5, 8, 2},     // fewer elements than CPE columns
                      Shape{8, 16, 3},    // one base row exactly
                      Shape{12, 16, 3},   // ragged element count
                      Shape{16, 32, 6},   // two base rows
                      Shape{24, 128, 2},  // the paper's level count
                      Shape{64, 16, 1})); // one element per CPE

TEST(AccelRhsSweep, PortsAgreeOverLevelMultiplesOfEight) {
  sw::CoreGroup cg;
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  for (int nlev : {8, 16, 64}) {
    homme::Dims d;
    d.nlev = nlev;
    d.qsize = 0;
    auto base = accel::synthetic_state(d, 10);
    auto ref = base;
    accel::rhs_host(m, d, ref);
    auto ath = base;
    accel::rhs_athread(cg, d, ath, accel::PackedGeometry::pack(m, 10));
    EXPECT_LT(accel::state_max_rel_diff(ref, ath), 1e-10)
        << "nlev " << nlev;
  }
}

TEST(AccelRhsSweep, RejectsUnsupportedLevelCounts) {
  sw::CoreGroup cg;
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::Dims d;
  d.nlev = 12;  // not a multiple of 8
  d.qsize = 0;
  auto s = accel::synthetic_state(d, 4);
  EXPECT_THROW(
      accel::rhs_athread(cg, d, s, accel::PackedGeometry::pack(m, 4)),
      std::invalid_argument);
}

TEST(AccelTable1Sweep, OrderingInvariantsAcrossConfigs) {
  // The qualitative Table 1 orderings must not depend on the exact
  // workset shape (as long as the CPEs are reasonably fed).
  for (auto [nelem, nlev, qsize] :
       {std::tuple{64, 32, 4}, std::tuple{32, 64, 8}}) {
    accel::Table1Config cfg;
    cfg.nelem = nelem;
    cfg.nlev = nlev;
    cfg.qsize = qsize;
    cfg.mesh_ne = 2;
    auto rows = accel::run_table1(cfg);
    for (const auto& r : rows) {
      EXPECT_GT(r.mpe_s, r.intel_s) << r.name;
      EXPECT_LT(r.athread_s, r.acc_s) << r.name;
    }
    // rhs: the directive port loses to a single Intel core.
    EXPECT_GT(rows[0].acc_s, rows[0].intel_s);
  }
}

}  // namespace
