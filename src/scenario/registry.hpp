#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/session.hpp"
#include "scenario/init_spec.hpp"

/// \file registry.hpp
/// scenario:: — workloads as data.
///
/// The paper's experiments (Fig 4 validation, Fig 9 Katrina, Table 3
/// NGGPS) used to live as bespoke bench main()s with hand-rolled initial
/// conditions and ad-hoc sanity checks. A Scenario makes each of them —
/// and any new workload — a named bundle of:
///   - an InitSpec (the IC generator, member/perturb-parameterized),
///   - a default model::SessionConfig shape (ne, levels, tracers, dt,
///     remap cadence, physics, moist),
///   - an optional forcing schedule (e.g. the Held-Suarez relaxation),
///   - expected invariants as checkable predicates (tracker finds a
///     center, fields stay finite, layer thickness stays positive),
///   - free-form numeric params (e.g. the Katrina vortex parameters).
///
/// `scenario::get("katrina").session(overrides)` returns a ready
/// model::Session; svc::Engine resolves per-member scenario names so one
/// engine runs mixed-scenario ensembles; BenchOptions resolves
/// --scenario / --list-scenarios against the same registry. Adding a
/// workload is one register_scenario() call, not a new binary.

namespace scenario {

/// get() was asked for a name nobody registered.
class NotFound : public std::out_of_range {
 public:
  using std::out_of_range::out_of_range;
};

/// Sparse per-call tweaks layered over a scenario's default config.
/// Unset fields keep the registered default; `perturb` routes into the
/// InitSpec so perturbed-IC ensembles are one field away.
struct Overrides {
  std::optional<int> ne;
  std::optional<int> nlev;
  std::optional<int> qsize;
  std::optional<int> nranks;
  std::optional<int> remap_freq;
  std::optional<int> core_groups;
  std::optional<double> dt;
  std::optional<model::SessionConfig::Backend> backend;
  std::optional<bool> physics;
  std::optional<bool> trace;
  std::optional<double> perturb;
  std::optional<std::string> checkpoint_base;
  std::optional<int> checkpoint_freq;

  void apply(model::SessionConfig& cfg) const;
};

/// One entry of a scenario's forcing/event schedule. Events fire after
/// the step that brings the session to step_count n when
///   every == 0:  n == start            (one-shot; start 0 = before any
///                                       step, for seeding events)
///   every  > 0:  n >= start && (n - start) % every == 0
struct ForcingEvent {
  int start = 0;
  int every = 0;
  std::string name;
  std::function<void(model::Session&, int step)> apply;
};

/// A checkable expectation over a running session. Returns nullopt when
/// satisfied, a human-readable violation otherwise.
struct Invariant {
  std::string name;
  std::function<std::optional<std::string>(model::Session&)> check;
};

/// A workload: everything needed to launch, drive and sanity-check it.
struct Scenario {
  std::string name;   ///< registry key, e.g. "katrina"
  std::string kind;   ///< "storm", "validation", "analytic", "climate", ...
  std::string title;  ///< one line for --list-scenarios
  model::SessionConfig defaults;  ///< must carry an engaged InitSpec
  std::vector<ForcingEvent> forcing;
  std::vector<Invariant> invariants;
  /// Free-form numeric workload parameters (e.g. the vortex shape) so
  /// runners and perturbation generators read one source of truth.
  std::map<std::string, double> params;

  /// The defaults with \p ov applied and the IC bound to \p member.
  model::SessionConfig config(const Overrides& ov = {}, int member = 0) const;

  /// A ready-to-step Session (private mesh bundle).
  std::unique_ptr<model::Session> session(const Overrides& ov = {},
                                          int member = 0) const;
  /// Same, sharing \p bundle across members of one shape.
  std::unique_ptr<model::Session> session(
      const Overrides& ov, int member,
      std::shared_ptr<const model::MeshBundle> bundle) const;

  /// params[key], or \p fallback when the scenario doesn't define it.
  double param(const std::string& key, double fallback = 0.0) const;
};

/// Look up a registered scenario; throws NotFound naming the miss.
const Scenario& get(const std::string& name);
/// Like get(), but nullptr instead of a throw.
const Scenario* find(const std::string& name);
/// All registered names, sorted.
std::vector<std::string> names();
/// Register a workload. Throws std::invalid_argument on an empty name,
/// a duplicate, or a defaults config without an engaged InitSpec.
void register_scenario(Scenario s);

/// Fire every forcing event of \p sc due at step_count \p n.
void fire_forcing(const Scenario& sc, model::Session& s, int n);
/// First violated invariant as "name: why", nullopt when all pass.
std::optional<std::string> check_invariants(const Scenario& sc,
                                            model::Session& s);
/// Drive \p steps steps with the scenario's forcing schedule applied
/// (including seeding events due before the first step). Each step runs
/// in svc::Engine's order — step, forcing, cadence checkpoint — so a
/// checkpoint holds the forced state and a resumed run stays on the
/// straight run's trajectory.
void run(const Scenario& sc, model::Session& s, int steps);

/// Generate the scenario's initial condition on a caller-provided mesh
/// and dims, bound to \p member — for kernel benches that manage their
/// own state instead of a Session.
homme::State initial_state(const Scenario& sc, const mesh::CubedSphere& m,
                           const homme::Dims& d, int member = 0);

}  // namespace scenario
