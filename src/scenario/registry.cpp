#include "scenario/registry.hpp"

#include <algorithm>
#include <mutex>

namespace scenario {

// Defined in workloads.cpp: the builtin menu, registered exactly once
// before the first lookup so CLIs, tests and the svc engine all see the
// same list without an init call.
void register_builtin_workloads();

namespace {

struct Registry {
  std::mutex mu;
  std::map<std::string, Scenario> entries;
};

Registry& registry() {
  static Registry r;
  return r;
}

void ensure_builtins() {
  static std::once_flag once;
  std::call_once(once, register_builtin_workloads);
}

}  // namespace

void register_scenario(Scenario s) {
  if (s.name.empty()) {
    throw std::invalid_argument("scenario::register_scenario: empty name");
  }
  if (!s.defaults.init_spec.engaged()) {
    throw std::invalid_argument("scenario::register_scenario: \"" + s.name +
                                "\" has no engaged InitSpec generator");
  }
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (!r.entries.emplace(s.name, std::move(s)).second) {
    throw std::invalid_argument("scenario::register_scenario: \"" + s.name +
                                "\" is already registered");
  }
}

const Scenario* find(const std::string& name) {
  ensure_builtins();
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.entries.find(name);
  // Map nodes are stable and entries are never erased, so handing the
  // pointer out of the lock is safe.
  return it == r.entries.end() ? nullptr : &it->second;
}

const Scenario& get(const std::string& name) {
  const Scenario* sc = find(name);
  if (sc == nullptr) {
    std::string known;
    for (const auto& n : names()) {
      known += known.empty() ? n : ", " + n;
    }
    throw NotFound("scenario::get: no scenario named \"" + name +
                   "\" (known: " + known + ")");
  }
  return *sc;
}

std::vector<std::string> names() {
  ensure_builtins();
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string> out;
  out.reserve(r.entries.size());
  for (const auto& [n, sc] : r.entries) out.push_back(n);
  return out;  // std::map iteration is already sorted
}

// -- Scenario ----------------------------------------------------------------

void Overrides::apply(model::SessionConfig& cfg) const {
  if (ne) cfg.ne = *ne;
  if (nlev) cfg.nlev = *nlev;
  if (qsize) cfg.qsize = *qsize;
  if (nranks) cfg.nranks = *nranks;
  if (remap_freq) cfg.remap_freq = *remap_freq;
  if (core_groups) cfg.core_groups = *core_groups;
  if (dt) cfg.dt = *dt;
  if (backend) cfg.backend = *backend;
  if (physics) cfg.physics = *physics;
  if (trace) cfg.trace = *trace;
  if (perturb) cfg.init_spec.perturb = *perturb;
  if (checkpoint_base) cfg.checkpoint_base = *checkpoint_base;
  if (checkpoint_freq) cfg.checkpoint_freq = *checkpoint_freq;
}

model::SessionConfig Scenario::config(const Overrides& ov, int member) const {
  model::SessionConfig cfg = defaults;
  cfg.init_spec.member = member;
  ov.apply(cfg);
  return cfg;
}

std::unique_ptr<model::Session> Scenario::session(const Overrides& ov,
                                                  int member) const {
  return std::make_unique<model::Session>(config(ov, member));
}

std::unique_ptr<model::Session> Scenario::session(
    const Overrides& ov, int member,
    std::shared_ptr<const model::MeshBundle> bundle) const {
  return std::make_unique<model::Session>(config(ov, member),
                                          std::move(bundle));
}

double Scenario::param(const std::string& key, double fallback) const {
  auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

// -- driving helpers ---------------------------------------------------------

void fire_forcing(const Scenario& sc, model::Session& s, int n) {
  for (const auto& ev : sc.forcing) {
    const bool due = ev.every > 0
                         ? n >= ev.start && (n - ev.start) % ev.every == 0
                         : n == ev.start;
    if (due && ev.apply) ev.apply(s, n);
  }
}

std::optional<std::string> check_invariants(const Scenario& sc,
                                            model::Session& s) {
  for (const auto& inv : sc.invariants) {
    if (!inv.check) continue;
    if (auto why = inv.check(s)) return inv.name + ": " + *why;
  }
  return std::nullopt;
}

void run(const Scenario& sc, model::Session& s, int steps) {
  if (s.step_count() == 0) fire_forcing(sc, s, 0);
  for (int i = 0; i < steps; ++i) {
    s.step();
    fire_forcing(sc, s, s.step_count());
    s.maybe_checkpoint();
  }
}

homme::State initial_state(const Scenario& sc, const mesh::CubedSphere& m,
                           const homme::Dims& d, int member) {
  InitSpec spec = sc.defaults.init_spec;
  spec.member = member;
  return spec.build(m, d);
}

}  // namespace scenario
