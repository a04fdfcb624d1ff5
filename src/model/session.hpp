#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "homme/bndry.hpp"
#include "homme/checkpoint.hpp"
#include "homme/driver.hpp"
#include "homme/scratch.hpp"
#include "mesh/cubed_sphere.hpp"
#include "mesh/partition.hpp"
#include "obs/trace.hpp"
#include "physics/driver.hpp"
#include "scenario/init_spec.hpp"
#include "sw/fault.hpp"

/// \file session.hpp
/// model::Session — the one front door to a simulation.
///
/// Before this facade every driver (13 benches, the examples, any new
/// workload) re-assembled the same parts by hand: build a mesh, build a
/// partition and comm plan, a cluster and per-rank halo exchanges, attach
/// a PipelineAccelerator to every rank's dycore, wire the tracer into
/// every layer, write one checkpoint chain per rank. A Session
/// subsumes that construction soup behind one SessionConfig: resolution,
/// decomposition, exchange mode, accelerator backend, physics, fault
/// plan and checkpoint cadence are *config values*, not different call
/// sites. The svc:: ensemble engine runs many Sessions concurrently over
/// shared immutable MeshBundles.

namespace accel {
class PipelineAccelerator;
}
namespace homme {
class StateMonitor;
}

namespace model {

/// A SessionConfig that cannot be realized (validate() / Session ctor).
class ConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// The state monitor flagged a physically impossible state after a step.
class ModelBlowup : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Everything needed to build and drive one simulation. Builder-style:
/// every setter returns *this, so configs compose inline:
///   Session s(SessionConfig{}.with_ne(4).with_levels(8, 2)
///                 .with_backend(SessionConfig::Backend::kPipeline));
struct SessionConfig {
  enum class Backend {
    kHost,      ///< reference host implementation of every phase
    kPipeline   ///< vertical remap offloaded to the accel:: CPE pipeline
  };

  // -- resolution / dimensions ---------------------------------------------
  int ne = 4;                      ///< cubed-sphere elements per face edge
  double radius = mesh::kEarthRadius;
  int nlev = 8;                    ///< vertical layers
  int qsize = 2;                   ///< advected tracers
  bool moist = false;

  // -- dynamics (the former DycoreConfig fields) ---------------------------
  double dt = 0.0;                 ///< s; 0 picks the stable dt for the mesh
  int remap_freq = 3;
  bool limit_tracers = true;
  bool hypervis_on = true;

  // -- initial condition ----------------------------------------------------
  /// Typed IC: its generator builds the global state and its `tracers`
  /// flag fills the cosine-bell tracers — the path every scenario::
  /// workload (vortex seeds, perturbed ensembles) flows through. Must be
  /// engaged (validate()); the default is the baroclinic wave with
  /// tracers.
  scenario::InitSpec init_spec = scenario::InitSpec::baroclinic();

  // -- decomposition / exchange --------------------------------------------
  /// 1: the whole mesh steps on the calling thread, its DSS an exchange
  /// with no neighbours; >1: SFC-partitioned ranks step on the threaded
  /// mini-MPI, each DSS a bndry_exchangev in `exchange` mode. Every rank
  /// count steps to the same bits; it only decides how the work is split.
  int nranks = 1;
  homme::BndryExchange::Mode exchange = homme::BndryExchange::Mode::kOverlap;
  double watchdog_s = 0.0;         ///< net watchdog bound (parallel only)

  // -- backend / physics ----------------------------------------------------
  Backend backend = Backend::kHost;
  bool physics = false;            ///< run the column physics each step, at dt
  /// Parameterization suite configuration (module toggles, SST closure).
  /// The default-constructed value is the historical full suite.
  phys::PhysicsConfig physics_cfg{};

  // -- accelerator core groups ----------------------------------------------
  /// Core groups the pipeline backend runs on. The session builds one
  /// pool of this many groups (deterministic modeled contention,
  /// bit-identical results) and rank r shards its remaps across the
  /// groups i with i % nranks == r: every group for one rank, group
  /// r % N when ranks outnumber groups — the MPE-level decomposition
  /// feeding per-CG pipelines. Ignored on the host backend (analytic
  /// benches accept --core-groups uniformly).
  int core_groups = 1;

  // -- resilience -----------------------------------------------------------
  sw::FaultPlan* faults = nullptr;  ///< injected kernel/message faults
  int checkpoint_freq = 0;          ///< steps; 0 disables the cadence
  std::string checkpoint_base;      ///< required when checkpoint_freq > 0
  /// K >= 1: every rank r writes its own async delta chain — a full
  /// "<base>.r<r>.full" image every K saves, dirty-chunk "<base>.r<r>.dN"
  /// records between, serialized off the stepping thread. K = 1 makes
  /// every save a full image.
  int ckpt_full_interval = 1;
  bool monitor = false;             ///< StateMonitor after every step

  // -- observability --------------------------------------------------------
  bool trace = false;              ///< enable the session's own tracer
  obs::ClockDomain trace_domain = obs::ClockDomain::kVirtual;

  // -- builder setters ------------------------------------------------------
  SessionConfig& with_ne(int v) { ne = v; return *this; }
  SessionConfig& with_radius(double v) { radius = v; return *this; }
  SessionConfig& with_levels(int levels, int tracers) {
    nlev = levels; qsize = tracers; return *this;
  }
  SessionConfig& with_moist(bool v = true) { moist = v; return *this; }
  SessionConfig& with_dt(double v) { dt = v; return *this; }
  SessionConfig& with_remap_freq(int v) { remap_freq = v; return *this; }
  SessionConfig& with_limiter(bool v) { limit_tracers = v; return *this; }
  SessionConfig& with_hypervis(bool v) { hypervis_on = v; return *this; }
  SessionConfig& with_init(scenario::InitSpec spec) {
    init_spec = std::move(spec); return *this;
  }
  SessionConfig& with_ranks(int v) { nranks = v; return *this; }
  SessionConfig& with_exchange(homme::BndryExchange::Mode v) {
    exchange = v; return *this;
  }
  SessionConfig& with_watchdog(double seconds) {
    watchdog_s = seconds; return *this;
  }
  SessionConfig& with_backend(Backend v) { backend = v; return *this; }
  SessionConfig& with_core_groups(int v) { core_groups = v; return *this; }
  SessionConfig& with_physics(bool v = true) { physics = v; return *this; }
  SessionConfig& with_physics_config(phys::PhysicsConfig c) {
    physics_cfg = std::move(c); return *this;
  }
  SessionConfig& with_faults(sw::FaultPlan* plan) {
    faults = plan; return *this;
  }
  SessionConfig& with_checkpoints(std::string base, int freq,
                                  int full_interval = 1) {
    checkpoint_base = std::move(base); checkpoint_freq = freq;
    ckpt_full_interval = full_interval; return *this;
  }
  SessionConfig& with_monitor(bool v = true) { monitor = v; return *this; }
  SessionConfig& with_trace(bool v = true,
                            obs::ClockDomain d = obs::ClockDomain::kVirtual) {
    trace = v; trace_domain = d; return *this;
  }

  /// The dynamics sub-config this expands to.
  homme::DycoreConfig dycore_config() const;
  homme::Dims dims() const;

  /// Throws ConfigError on the first unrealizable setting.
  void validate() const;
};

/// CRC32 digest of a model state — the bit-identity handle shared by the
/// svc:: engine, the scenario:: experiment runners and the tests: equal
/// configs must yield equal digests at any worker count. Hashes the raw
/// field arrays, NOT a serialized checkpoint image: that format follows
/// every block with the block's own CRC-32, and by CRC linearity a
/// whole-stream CRC over block||crc(block) pairs cancels the block
/// contents entirely (every image of one shape would hash alike).
std::uint32_t state_digest(const homme::State& state, int step_count);

/// The immutable per-resolution data every simulation of a (ne, nranks,
/// radius) shape shares: mesh topology + metric terms, SFC partition,
/// comm plan.
/// Build once, share via shared_ptr into every Session — an N-member
/// ensemble pays for one copy (see MeshBundle::bytes).
struct MeshBundle {
  mesh::CubedSphere mesh;
  mesh::Partition partition;
  mesh::CommPlan plan;
  int ne = 0;
  int nranks = 1;
  double radius = mesh::kEarthRadius;

  static std::shared_ptr<const MeshBundle> build(
      int ne, int nranks = 1, double radius = mesh::kEarthRadius);

  /// Approximate resident bytes of the bundle (mesh geometry dominates).
  std::size_t bytes() const;

  /// True when a config of this shape can share this bundle.
  bool compatible(const SessionConfig& cfg) const {
    return cfg.ne == ne && cfg.nranks == nranks && cfg.radius == radius;
  }
};

/// One running simulation. Owns everything below the config line — one
/// dycore, local state and accelerator per rank, the cluster and halo
/// exchanges of a multi-rank session, physics, tracer — and shares the
/// immutable MeshBundle.
class Session {
 public:
  /// Build from scratch (constructs a private MeshBundle).
  explicit Session(SessionConfig cfg);
  /// Share \p bundle (must satisfy bundle->compatible(cfg)).
  Session(SessionConfig cfg, std::shared_ptr<const MeshBundle> bundle);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Copy-on-write clone, built like any session of the same config. The
  /// child shares the MeshBundle and aliases every state chunk of the
  /// parent's ranks; the first write to a field un-shares just that
  /// chunk, so forking N members costs refcount bumps, not N state
  /// copies. The child continues from the parent's step_count (remap
  /// cadence included). Its checkpoint cadence is disabled unless a new
  /// \p checkpoint_base is given (children must not write over the
  /// parent's chain).
  std::unique_ptr<Session> fork(const std::string& checkpoint_base = "") const;

  // -- driving --------------------------------------------------------------

  /// One model step: dynamics, then physics when configured, then the
  /// state monitor when configured (a violation throws ModelBlowup).
  void step();
  /// \p n steps, honoring the checkpoint cadence.
  void run(int n);

  /// Conservation / sanity diagnostics: one pass over the assembled
  /// state in mesh order, so they are the one-rank bits at any rank
  /// count and repeated calls agree bitwise.
  homme::Diagnostics diagnose();

  // -- state ----------------------------------------------------------------

  /// Assembled global state (mesh element order), by value. Aliases the
  /// ranks' chunks (COW): no field is copied.
  homme::State state() const;
  /// Replace the model state (re-gathers rank-local views, aliasing).
  void set_state(const homme::State& global);

  // -- resilience -----------------------------------------------------------

  /// Unconditional checkpoint: every rank hands a COW snapshot of its
  /// state to its chain's async writer and returns; serialization and
  /// I/O happen off the stepping thread. Returns false when the config
  /// names no checkpoint_base. Rethrows an earlier background write
  /// error.
  bool checkpoint_now();
  /// Drain every rank's writer, then restore from the rank chains on
  /// disk — bit-identical to the last checkpoint, remap cadence
  /// realigned. Returns false, leaving the session untouched, when
  /// there is no checkpoint_base or rank 0 has no chain. Every rank's
  /// chain must match this session's dims, element count and dynamics
  /// config and carry one shared step count, or CheckpointError is
  /// thrown and the session is left untouched.
  bool try_resume();
  /// Apply the checkpoint cadence after a step: checkpoints when
  /// checkpoint_freq > 0 divides step_count(). Returns whether it did.
  bool maybe_checkpoint();

  // -- introspection --------------------------------------------------------

  const SessionConfig& config() const { return cfg_; }
  int step_count() const { return step_count_; }
  double dt() const;
  const mesh::CubedSphere& mesh() const { return bundle_->mesh; }
  const MeshBundle& bundle() const { return *bundle_; }
  std::shared_ptr<const MeshBundle> bundle_ptr() const { return bundle_; }
  const homme::Dims& dims() const { return dims_; }

  /// Accelerator launches redone on the host after an injected fault,
  /// summed over ranks (0 on the host backend).
  int fallbacks() const;
  /// The accelerator behind \p rank's dycore (nullptr on the host
  /// backend) — an escape hatch for benches that time a single phase.
  homme::StepAccelerator* accelerator(int rank = 0) const;

  /// Physics diagnostics of the most recent step (physics mode only).
  const phys::PhysicsStats& physics_stats() const { return phys_stats_; }

  /// COW memory accounting of this session's state (summed over rank
  /// locals). resident_bytes is this member's amortized share of the
  /// payloads it references — summing it over an ensemble's sessions
  /// reproduces the true allocation.
  homme::StoreStats store_stats() const;
  /// Checkpoint counters summed over the ranks' writers, after draining
  /// them, so every checkpoint so far is counted; rethrows a background
  /// write error. All zero without a checkpoint_base.
  homme::AsyncCheckpointWriter::Stats checkpoint_stats();

  /// The session's own tracer: every layer (dycore, exchange, net,
  /// accelerator, core group) reports into it when cfg.trace is set.
  obs::Tracer& tracer() { return *tracer_; }
  obs::Summary summary() const { return tracer_->summary(); }

 private:
  struct ForkTag {};
  /// COW-clone ctor behind fork(): shares the bundle, aliases the state.
  Session(const Session& parent, const std::string& checkpoint_base,
          ForkTag);

  /// One rank's slice of the model. One rank owns the whole mesh in mesh
  /// order, and its exchange (no neighbours) belongs to its dycore.
  struct RankSlot {
    std::unique_ptr<homme::BndryExchange> bndry;  ///< N ranks only
    std::unique_ptr<homme::Dycore> dycore;
    homme::State state;  ///< the dycore's elements, local order
    std::unique_ptr<accel::PipelineAccelerator> accel;  ///< kPipeline only
    /// This rank's chain writer; checkpoint_base only.
    std::unique_ptr<homme::AsyncCheckpointWriter> ckpt;
    /// N ranks only: the scratch arena the rank's step runs on. The
    /// cluster's threads live for one step; the arena lives with the rank.
    std::unique_ptr<homme::ScratchArena> arena;
  };

  /// Per-rank construction shared by the constructor and fork(): the IC
  /// (or \p parent's aliased states), dycores, accelerators, checkpoint
  /// writers, physics and monitor.
  void build(const Session* parent);
  homme::CheckpointInfo checkpoint_info(const RankSlot& rk) const;
  void check_restored(const homme::CheckpointInfo& info, const RankSlot& rk,
                      const std::string& path) const;
  void resume_at(std::int64_t step);

  SessionConfig cfg_;
  std::shared_ptr<const MeshBundle> bundle_;
  homme::Dims dims_;
  int step_count_ = 0;

  std::unique_ptr<obs::Tracer> tracer_;

  std::unique_ptr<net::Cluster> cluster_;  ///< N ranks only
  std::vector<RankSlot> ranks_;
  std::unique_ptr<phys::PhysicsDriver> physics_;
  phys::PhysicsStats phys_stats_;
  std::unique_ptr<homme::StateMonitor> monitor_;
};

}  // namespace model
