#include "model/session.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "accel/accel_driver.hpp"
#include "homme/checkpoint.hpp"
#include "homme/exchange.hpp"
#include "homme/local_state.hpp"
#include "sw/cg_pool.hpp"

namespace model {

// -- SessionConfig -----------------------------------------------------------

homme::DycoreConfig SessionConfig::dycore_config() const {
  homme::DycoreConfig c;
  c.dt = dt;
  c.remap_freq = remap_freq;
  c.limit_tracers = limit_tracers;
  c.hypervis_on = hypervis_on;
  return c;
}

homme::Dims SessionConfig::dims() const {
  homme::Dims d;
  d.nlev = nlev;
  d.qsize = qsize;
  d.moist = moist;
  return d;
}

void SessionConfig::validate() const {
  if (ne < 1) throw ConfigError("SessionConfig: ne must be >= 1");
  // Finite too: the radius keys the engine's shared mesh bundles, and a
  // NaN key breaks the map's ordering.
  if (!std::isfinite(radius) || radius <= 0.0) {
    throw ConfigError("SessionConfig: radius must be finite and > 0");
  }
  if (nlev < 1) throw ConfigError("SessionConfig: nlev must be >= 1");
  if (qsize < 0) throw ConfigError("SessionConfig: qsize must be >= 0");
  if (dt < 0.0) throw ConfigError("SessionConfig: dt must be >= 0");
  if (remap_freq < 1) {
    throw ConfigError("SessionConfig: remap_freq must be >= 1");
  }
  if (nranks < 1) throw ConfigError("SessionConfig: nranks must be >= 1");
  if (nranks > 6 * ne * ne) {
    throw ConfigError("SessionConfig: more ranks than elements (" +
                      std::to_string(nranks) + " > " +
                      std::to_string(6 * ne * ne) + ")");
  }
  if (moist && qsize < 1) {
    throw ConfigError("SessionConfig: moist dynamics need tracer 0 "
                      "(specific humidity); qsize must be >= 1");
  }
  if (physics && qsize < 1) {
    throw ConfigError("SessionConfig: physics needs tracer 0 (specific "
                      "humidity); qsize must be >= 1");
  }
  if (physics && nranks > 1) {
    throw ConfigError("SessionConfig: physics is only supported on "
                      "sequential sessions (nranks == 1)");
  }
  if (!init_spec.engaged()) {
    throw ConfigError("SessionConfig: init_spec \"" + init_spec.name +
                      "\" has no generator; use a scenario::InitSpec "
                      "builtin such as InitSpec::baroclinic()");
  }
  if (init_spec.member < 0) {
    throw ConfigError("SessionConfig: init_spec.member must be >= 0");
  }
  if (init_spec.perturb < 0.0) {
    throw ConfigError("SessionConfig: init_spec.perturb must be >= 0");
  }
  if (checkpoint_freq < 0) {
    throw ConfigError("SessionConfig: checkpoint_freq must be >= 0");
  }
  if (checkpoint_freq > 0 && checkpoint_base.empty()) {
    throw ConfigError("SessionConfig: checkpoint cadence needs a "
                      "checkpoint_base path");
  }
  if (ckpt_full_interval < 1) {
    throw ConfigError("SessionConfig: ckpt_full_interval must be >= 1");
  }
  if (watchdog_s < 0.0) {
    throw ConfigError("SessionConfig: watchdog_s must be >= 0");
  }
  if (core_groups < 1) {
    throw ConfigError("SessionConfig: core_groups must be >= 1");
  }
}

// -- state digest ------------------------------------------------------------

std::uint32_t state_digest(const homme::State& state, int step_count) {
  std::vector<std::uint32_t> crcs;
  crcs.reserve(state.size() * 6 + 2);
  auto add = [&crcs](std::span<const double> v) {
    crcs.push_back(homme::crc32(v.data(), v.size() * sizeof(double)));
  };
  for (const auto& e : state) {
    add(e.u1.span());
    add(e.u2.span());
    add(e.T.span());
    add(e.dp.span());
    add(e.qdp.span());
    add(e.phis.span());
  }
  crcs.push_back(static_cast<std::uint32_t>(state.size()));
  crcs.push_back(static_cast<std::uint32_t>(step_count));
  return homme::crc32(crcs.data(), crcs.size() * sizeof(std::uint32_t));
}

// -- MeshBundle --------------------------------------------------------------

std::shared_ptr<const MeshBundle> MeshBundle::build(int ne, int nranks,
                                                    double radius) {
  auto b = std::make_shared<MeshBundle>();
  b->mesh = mesh::CubedSphere::build(ne, radius);
  b->partition = mesh::Partition::build(b->mesh, nranks);
  b->plan = mesh::CommPlan::build(b->mesh, b->partition);
  b->ne = ne;
  b->nranks = nranks;
  b->radius = radius;
  return b;
}

std::size_t MeshBundle::bytes() const {
  std::size_t n = sizeof(MeshBundle);
  const std::size_t nelem = static_cast<std::size_t>(mesh.nelem());
  n += nelem * sizeof(mesh::ElementGeom);             // geom_
  n += nelem * sizeof(std::array<int, mesh::kNpp>);   // nodes_
  // node_elems_: one (elem, gidx) pair per GLL point of every element.
  n += nelem * mesh::kNpp * sizeof(std::pair<int, int>);
  n += partition.elem_rank.size() * sizeof(int);
  for (const auto& re : partition.rank_elems) n += re.size() * sizeof(int);
  for (const auto& neighbors : plan.per_rank) {
    for (const auto& nb : neighbors) {
      n += sizeof(nb) + nb.nodes.size() * sizeof(int);
    }
  }
  return n;
}

// -- Session -----------------------------------------------------------------

Session::Session(SessionConfig cfg)
    : Session(std::move(cfg), nullptr) {}

Session::Session(SessionConfig cfg, std::shared_ptr<const MeshBundle> bundle)
    : cfg_(std::move(cfg)), bundle_(std::move(bundle)) {
  cfg_.validate();
  if (bundle_ == nullptr) {
    bundle_ = MeshBundle::build(cfg_.ne, cfg_.nranks, cfg_.radius);
  } else if (!bundle_->compatible(cfg_)) {
    const auto shape = [](int ne, int nranks, double radius) {
      return "ne" + std::to_string(ne) + "/" + std::to_string(nranks) +
             " ranks/radius " + std::to_string(radius) + " m";
    };
    throw ConfigError("Session: mesh bundle is " +
                      shape(bundle_->ne, bundle_->nranks, bundle_->radius) +
                      ", config wants " +
                      shape(cfg_.ne, cfg_.nranks, cfg_.radius));
  }
  build(nullptr);
}

Session::~Session() = default;

void Session::build(const Session* parent) {
  dims_ = cfg_.dims();
  tracer_ = std::make_unique<obs::Tracer>(cfg_.trace_domain);
  tracer_->enable(cfg_.trace);
  const mesh::CubedSphere& m = bundle_->mesh;
  const auto nranks = static_cast<std::size_t>(cfg_.nranks);

  // The initial condition is generated before the per-rank stage
  // buffers: in the other order, freeing its temporaries trims the heap
  // and every construction re-faults about a thousand pages.
  homme::State global;
  if (parent == nullptr) global = cfg_.init_spec.build(m, dims_);

  // Where each rank's work lives. The rank count decides how the work is
  // split, never the bits: here, whether a cluster and per-rank halo
  // exchanges are built — N ranks own their SFC partition slices and
  // report on the "rank<r>" tracks that net:* and bndry:* share, one rank
  // owns the whole mesh in mesh order (its dycore's exchange has no
  // neighbours) and reports on "dycore" — and in step(), whether the step
  // runs inline or on the cluster.
  struct Placement {
    std::vector<int> elems;  ///< empty: the whole mesh, mesh order
    obs::Track* track;
    std::string accel_track;
    int accel_pid;
  };
  std::vector<Placement> places;
  ranks_.resize(nranks);
  if (cfg_.nranks > 1) {
    cluster_ = std::make_unique<net::Cluster>(cfg_.nranks);
    cluster_->set_fault_plan(cfg_.faults);
    cluster_->set_watchdog(cfg_.watchdog_s);
    cluster_->set_tracer(tracer_.get());
    for (int r = 0; r < cfg_.nranks; ++r) {
      obs::Track* trk = cluster_->rank_track(r);
      auto& bx = ranks_[static_cast<std::size_t>(r)].bndry;
      bx = std::make_unique<homme::BndryExchange>(m, bundle_->partition,
                                                  bundle_->plan, r);
      bx->set_track(trk);
      ranks_[static_cast<std::size_t>(r)].arena =
          std::make_unique<homme::ScratchArena>();
      places.push_back(
          {bundle_->partition.rank_elems[static_cast<std::size_t>(r)], trk,
           "accel.r" + std::to_string(r), r});
    }
  } else {
    places.push_back({{}, &tracer_->track("dycore", 0, 0), "accel",
                      sw::CoreGroup::kDefaultTracePid});
  }

  // The pipeline's core groups: one pool this session builds when it
  // wants more than each accelerator's private single group. Rank r
  // shards its remaps across the groups i % n for every i with
  // i % nranks == r.
  std::shared_ptr<sw::CgPool> pool;
  if (cfg_.core_groups > 1 &&
      cfg_.backend == SessionConfig::Backend::kPipeline) {
    pool = std::make_shared<sw::CgPool>(cfg_.core_groups);
    pool->set_tracer(tracer_.get(), sw::CoreGroup::kDefaultTracePid,
                     "accel");
  }

  for (std::size_t r = 0; r < nranks; ++r) {
    RankSlot& rk = ranks_[r];
    Placement& p = places[r];
    rk.dycore = std::make_unique<homme::Dycore>(m, dims_, cfg_.dycore_config(),
                                                std::move(p.elems));
    rk.dycore->set_track(p.track);
    if (!cfg_.checkpoint_base.empty()) {
      rk.ckpt = std::make_unique<homme::AsyncCheckpointWriter>(
          homme::checkpoint_rank_path(cfg_.checkpoint_base,
                                      static_cast<int>(r)),
          cfg_.ckpt_full_interval);
    }
    if (cfg_.backend != SessionConfig::Backend::kPipeline) continue;
    rk.accel = std::make_unique<accel::PipelineAccelerator>(dims_);
    rk.accel->set_tracer(tracer_.get(), p.accel_track, p.accel_pid);
    if (pool != nullptr) {
      const auto n = static_cast<std::size_t>(pool->size());
      std::vector<int> groups;
      for (std::size_t i = r; i < std::max(n, nranks); i += nranks) {
        groups.push_back(static_cast<int>(i % n));
      }
      rk.accel->set_cg_pool(pool, std::move(groups));
    }
    rk.accel->set_fault_plan(cfg_.faults);
    rk.dycore->attach_accelerator(rk.accel.get());
  }

  if (parent != nullptr) {
    // The fork itself: alias every chunk of the parent's states. The
    // child's (or parent's) first write to a field un-shares just that
    // chunk.
    for (std::size_t r = 0; r < nranks; ++r) {
      ranks_[r].state = parent->ranks_[r].state;
    }
    resume_at(parent->step_count_);
  } else {
    set_state(global);
  }

  if (cfg_.physics) {
    physics_ = std::make_unique<phys::PhysicsDriver>(m, dims_,
                                                     cfg_.physics_cfg);
  }
  if (cfg_.monitor) {
    monitor_ = std::make_unique<homme::StateMonitor>(dims_);
  }
}

Session::Session(const Session& parent, const std::string& checkpoint_base,
                 ForkTag)
    : cfg_(parent.cfg_), bundle_(parent.bundle_) {
  // A child never inherits the parent's checkpoint chain — same base
  // would mean both sessions overwrite one file set.
  if (checkpoint_base.empty()) {
    cfg_.checkpoint_freq = 0;
    cfg_.checkpoint_base.clear();
  } else {
    cfg_.checkpoint_base = checkpoint_base;
  }
  build(&parent);
}

std::unique_ptr<Session> Session::fork(
    const std::string& checkpoint_base) const {
  return std::unique_ptr<Session>(
      new Session(*this, checkpoint_base, ForkTag{}));
}

double Session::dt() const { return ranks_.front().dycore->dt(); }

void Session::step() {
  // The second rank-count decision (see build()): one rank steps inline
  // on the calling thread against its dycore's exchange; N ranks step on
  // the cluster's threads, each against its bndry_exchangev. Both sum
  // every node in ascending element id, so both give the one-rank bits.
  if (cluster_ == nullptr) {
    ranks_.front().dycore->step(ranks_.front().state);
  } else {
    cluster_->run([&](net::Rank& r) {
      RankSlot& rk = ranks_[static_cast<std::size_t>(r.rank())];
      homme::ScratchArena::Bind scratch(*rk.arena);
      rk.dycore->step(rk.state,
                      homme::Exchange(*rk.bndry, &r, cfg_.exchange));
    });
  }
  if (physics_ != nullptr) {
    // validate() keeps physics to one rank: it indexes global elements.
    // Its span shares the track of that rank's dyn:step spans.
    obs::ScopedSpan span(ranks_.front().dycore->track(), "phys:step");
    phys_stats_ = physics_->step(ranks_.front().state, dt());
  }
  ++step_count_;
  if (monitor_ == nullptr) return;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    if (auto why = monitor_->check(ranks_[r].state)) {
      throw ModelBlowup("rank " + std::to_string(r) + ": " + *why);
    }
  }
}

void Session::run(int n) {
  for (int i = 0; i < n; ++i) {
    step();
    maybe_checkpoint();
  }
}

bool Session::checkpoint_now() {
  if (cfg_.checkpoint_base.empty()) return false;
  for (RankSlot& rk : ranks_) rk.ckpt->save(checkpoint_info(rk), rk.state);
  return true;
}

bool Session::maybe_checkpoint() {
  if (cfg_.checkpoint_freq <= 0 || step_count_ % cfg_.checkpoint_freq != 0) {
    return false;
  }
  return checkpoint_now();
}

bool Session::try_resume() {
  if (cfg_.checkpoint_base.empty()) return false;
  for (RankSlot& rk : ranks_) rk.ckpt->drain();  // every save is on disk
  if (!homme::DeltaCheckpointWriter::has_chain(ranks_.front().ckpt->base())) {
    return false;
  }
  // Validate every rank's chain before adopting any: a mismatched set
  // leaves the session as it was.
  std::vector<homme::State> loaded(ranks_.size());
  std::int64_t step = 0;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const std::string& base = ranks_[r].ckpt->base();
    const homme::CheckpointInfo info =
        homme::DeltaCheckpointWriter::restore_chain(base, loaded[r]);
    check_restored(info, ranks_[r], base);
    if (r == 0) {
      step = info.step_count;
    } else if (info.step_count != step) {
      throw homme::CheckpointError(
          base + ": written at step " + std::to_string(info.step_count) +
          ", but rank 0's chain is at step " + std::to_string(step) +
          " (mixed checkpoint set)");
    }
  }
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    ranks_[r].state = std::move(loaded[r]);
  }
  resume_at(step);
  return true;
}

homme::Diagnostics Session::diagnose() {
  return homme::diagnose(bundle_->mesh, dims_, state());
}

homme::State Session::state() const {
  homme::State global(static_cast<std::size_t>(bundle_->mesh.nelem()));
  for (const RankSlot& rk : ranks_) {
    homme::scatter_local(rk.dycore->elements(), rk.state, global);
  }
  return global;
}

void Session::set_state(const homme::State& global) {
  if (global.size() != static_cast<std::size_t>(bundle_->mesh.nelem())) {
    throw ConfigError("Session::set_state: state has " +
                      std::to_string(global.size()) + " elements, mesh has " +
                      std::to_string(bundle_->mesh.nelem()));
  }
  for (RankSlot& rk : ranks_) {
    rk.state = homme::gather_local(rk.dycore->elements(), global);
  }
}

homme::CheckpointInfo Session::checkpoint_info(const RankSlot& rk) const {
  homme::CheckpointInfo info;
  info.nelem = rk.state.size();
  info.dims = dims_;
  info.config = cfg_.dycore_config();
  info.config.dt = rk.dycore->dt();  // the resolved (auto-picked) values
  info.nu = rk.dycore->nu();
  info.step_count = step_count_;
  info.rng_seed = cfg_.faults != nullptr ? cfg_.faults->seed() : 0;
  return info;
}

void Session::check_restored(const homme::CheckpointInfo& info,
                             const RankSlot& rk,
                             const std::string& path) const {
  const homme::CheckpointInfo want = checkpoint_info(rk);
  if (info.dims.nlev != want.dims.nlev || info.dims.qsize != want.dims.qsize ||
      info.dims.moist != want.dims.moist) {
    throw homme::CheckpointError(
        path + ": dims mismatch (file nlev=" + std::to_string(info.dims.nlev) +
        " qsize=" + std::to_string(info.dims.qsize) +
        " moist=" + std::to_string(info.dims.moist) + ", session nlev=" +
        std::to_string(want.dims.nlev) + " qsize=" +
        std::to_string(want.dims.qsize) +
        " moist=" + std::to_string(want.dims.moist) + ")");
  }
  if (info.nelem != want.nelem) {
    throw homme::CheckpointError(
        path + ": element count mismatch (file has " +
        std::to_string(info.nelem) + ", session rank owns " +
        std::to_string(want.nelem) + ")");
  }
  const homme::DycoreConfig& f = info.config;
  const homme::DycoreConfig& w = want.config;
  if (f.dt != w.dt || info.nu != want.nu || f.remap_freq != w.remap_freq ||
      f.limit_tracers != w.limit_tracers || f.hypervis_on != w.hypervis_on) {
    throw homme::CheckpointError(
        path + ": config mismatch (file dt=" + std::to_string(f.dt) +
        " nu=" + std::to_string(info.nu) +
        " remap_freq=" + std::to_string(f.remap_freq) +
        " limit_tracers=" + std::to_string(f.limit_tracers) +
        " hypervis_on=" + std::to_string(f.hypervis_on) + ", session dt=" +
        std::to_string(w.dt) + " nu=" + std::to_string(want.nu) +
        " remap_freq=" + std::to_string(w.remap_freq) +
        " limit_tracers=" + std::to_string(w.limit_tracers) +
        " hypervis_on=" + std::to_string(w.hypervis_on) + ")");
  }
}

void Session::resume_at(std::int64_t step) {
  step_count_ = static_cast<int>(step);
  for (RankSlot& rk : ranks_) rk.dycore->set_step_count(step_count_);
}

homme::StoreStats Session::store_stats() const {
  homme::StoreStats total;
  for (const RankSlot& rk : ranks_) total += rk.state.stats();
  return total;
}

homme::AsyncCheckpointWriter::Stats Session::checkpoint_stats() {
  homme::AsyncCheckpointWriter::Stats total;
  for (RankSlot& rk : ranks_) {
    if (rk.ckpt == nullptr) continue;
    rk.ckpt->drain();
    total += rk.ckpt->stats();
  }
  return total;
}

int Session::fallbacks() const {
  int n = 0;
  for (const RankSlot& rk : ranks_) {
    if (rk.accel != nullptr) n += rk.accel->fallbacks();
  }
  return n;
}

homme::StepAccelerator* Session::accelerator(int rank) const {
  const auto i = static_cast<std::size_t>(rank);
  return i < ranks_.size() ? ranks_[i].accel.get() : nullptr;
}

}  // namespace model
