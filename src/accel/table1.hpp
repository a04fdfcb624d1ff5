#pragma once

#include <functional>
#include <string>
#include <vector>

#include "accel/euler_acc.hpp"
#include "accel/hypervis_acc.hpp"
#include "accel/packed.hpp"
#include "mesh/cubed_sphere.hpp"
#include "sw/core_group.hpp"
#include "sw/cost_model.hpp"

/// \file table1.hpp
/// Reproduction harness for Table 1 / Figure 5 of the paper: the six key
/// dynamics kernels timed on (a) one Intel Xeon E5-2680v3 core, (b) one
/// SW26010 MPE, (c) the 64-CPE cluster via OpenACC-style refactoring,
/// (d) the 64-CPE cluster via the Athread redesign.
///
/// The CPE-cluster times are modeled by executing the ports on the
/// deterministic simulator (flops and DMA traffic are *measured*); the
/// cache-based platforms are priced by the roofline model of
/// sw/cost_model.hpp using the measured flop counts and analytic
/// compulsory traffic. The paper's Table 1 reports cumulative seconds of
/// 6,144-process ne256 runs; we report per-invocation seconds of one
/// process's share (64 elements), so the *ratios* are the comparable
/// quantity. Every platform runs on the model's own homme::State (a
/// synthetic_state), beside one PackedGeometry image per run.

namespace accel {

struct Table1Config {
  int nelem = 64;   ///< elements per process at ne256 / 6,144 processes
  int nlev = 128;   ///< paper configuration
  int qsize = 25;   ///< CAM5-like tracer count
  int mesh_ne = 4;  ///< geometry donor mesh
};

struct Table1Row {
  std::string name;
  double intel_s = 0.0;
  double mpe_s = 0.0;
  double acc_s = 0.0;
  double athread_s = 0.0;
  /// Paper Table 1 values (seconds, 6144-process runs) for comparison.
  double paper_intel = 0.0, paper_mpe = 0.0, paper_acc = 0.0;
  std::uint64_t flops = 0;
  std::uint64_t acc_dma_bytes = 0;
  std::uint64_t athread_dma_bytes = 0;
  /// Residency-ledger split of the athread traffic: bytes served from
  /// LDM without a transfer vs bytes actually moved (reuse-aware
  /// counters; reused + cold need not equal dma_bytes for kernels that
  /// skip the ledger).
  std::uint64_t athread_dma_reused = 0;
  std::uint64_t athread_dma_cold = 0;
  /// Athread launches the resilience layer discarded and redid on the
  /// host path (0 in a healthy run; nonzero only under fault injection).
  std::uint64_t athread_fallbacks = 0;

  double athread_speedup_vs_acc() const { return acc_s / athread_s; }
};

/// The host references of the Table 1 ports: the model's own host code on
/// the state \p s, of shape \p d, with element e's geometry from the donor
/// mesh \p m (m.geom(e % m.nelem()), as PackedGeometry::pack packs it).
/// Each updates \p s in place, as the ports do, with the ports' constants
/// (dt = kPortDt, nu * dt = kPortNuDt); homme::vertical_remap_local is the
/// fourth.
///
/// homme::element_rhs (dry, so T is its own virtual temperature), then
/// x += dt * tend.
void rhs_host(const mesh::CubedSphere& m, const homme::Dims& d,
              homme::State& s);
/// homme::element_tracer_rhs for every tracer, then q += dt * r.
void euler_host(const mesh::CubedSphere& m, const homme::Dims& d,
                homme::State& s);
/// The row's composition of homme::laplace_sphere_wk on each level tile:
/// x += nu_dt * L(x) for hypervis_dp1, x -= nu_dt * L(L(x)) for
/// hypervis_dp2 and biharmonic_dp3d. No homme kernel is this
/// element-local composition: the model's hyperviscosity DSSes between
/// its applications.
void hypervis_host(const mesh::CubedSphere& m, const homme::Dims& d,
                   homme::State& s, HvKernel which);

/// One kernel of Table 1: what it computes (its host reference) and how
/// each CPE port launches it. Table 1, the machine model's calibration
/// and the port tests all iterate table1_kernels().
struct Table1Kernel {
  using Launch =
      std::function<sw::KernelStats(sw::CoreGroup&, homme::State&)>;
  std::string name;
  /// Paper Table 1 values (seconds, 6144-process runs).
  double paper_intel, paper_mpe, paper_acc;
  /// The largest deviation from the reference the Athread port may show
  /// (the OpenACC ports must match it bit for bit).
  double athread_tol;
  sw::WorkEstimate work;  ///< compulsory traffic (flops: measured)
  std::function<void(homme::State&)> ref;  ///< updates a state in place
  Launch acc, athread;                     ///< likewise, on a core group
};

/// The six Table 1 kernels, in the table's order, on states of shape \p d
/// with \p nelem elements. The launches read the donor mesh \p m, the
/// geometry \p geo and euler's stand-ins \p derived by reference: all
/// three must outlive the list.
std::vector<Table1Kernel> table1_kernels(const mesh::CubedSphere& m,
                                         const homme::Dims& d, int nelem,
                                         const PackedGeometry& geo,
                                         const EulerDerived& derived);

/// Run all six kernels on every platform, each platform on a
/// copy-on-write copy of one synthetic_state; also verifies that the
/// OpenACC and Athread ports agree with the host references above, and
/// throws on a mismatch: every port must equal its reference bit for bit,
/// except the Athread rhs, whose register scans reassociate the column
/// sums (within 1e-8).
///
/// Every launch span carries the launch's counters into the obs:: per-phase
/// summary. A built-in identity check compares each of the 13 counters of
/// both launches with their KernelStats, and throws std::logic_error naming
/// the kernel, the platform and the counter if the two paths ever disagree
/// (double counting or drift in either one).
///
/// Pass an enabled \p tracer to additionally capture the kernel timeline
/// ("table1/cg" tracks); with nullptr (or a disabled tracer) an internal
/// tracer feeds the counter path and nothing is retained.
std::vector<Table1Row> run_table1(const Table1Config& cfg,
                                  obs::Tracer* tracer = nullptr);

/// Maximum relative deviation between the prognostics (u1, u2, T, dp and
/// qdp) of two states of one shape (the correctness gate inside
/// run_table1; exposed for tests and benches).
double state_max_rel_diff(const homme::State& a, const homme::State& b);

}  // namespace accel
