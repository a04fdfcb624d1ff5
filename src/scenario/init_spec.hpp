#pragma once

#include <functional>
#include <string>
#include <utility>

#include "homme/init.hpp"
#include "homme/state.hpp"
#include "mesh/cubed_sphere.hpp"

/// \file init_spec.hpp
/// scenario::InitSpec — an initial condition as a value.
///
/// An InitSpec bundles a generator function with the two knobs
/// ensembles parameterize on — the member index and a
/// scenario-interpreted perturbation magnitude — so every IC, builtin or
/// custom (the Katrina vortex, the perturbed aquaplanet), travels through
/// one validated SessionConfig path. Header-only by design: model::
/// consumes it without linking scenario::.

namespace scenario {

struct InitSpec {
  /// Build the initial global state. Receives the spec itself so that
  /// member / perturb parameterize the IC (perturbed-IC ensembles).
  using Generator = std::function<homme::State(
      const mesh::CubedSphere&, const homme::Dims&, const InitSpec&)>;

  std::string name;      ///< label, e.g. "baroclinic", "tc-vortex"
  Generator generate;    ///< must be set (SessionConfig::validate)
  bool tracers = false;  ///< fill tracers with the cosine bells afterwards
  int member = 0;        ///< ensemble member index (perturbation seed)
  double perturb = 0.0;  ///< perturbation magnitude; meaning is per-spec

  bool engaged() const { return static_cast<bool>(generate); }

  /// The initial global state: the generator's fields, then the cosine
  /// bells when `tracers` is set and \p d carries tracers.
  homme::State build(const mesh::CubedSphere& m, const homme::Dims& d) const {
    homme::State s = generate(m, d, *this);
    if (tracers && d.qsize > 0) homme::init_tracers(m, d, s);
    return s;
  }

  // -- builtin ICs, wrapping homme::init -------------------------------------

  static InitSpec baroclinic(bool with_tracers = true, double u0 = 20.0,
                             double t0 = 300.0, double amp = 2.0,
                             double lon0 = 0.0, double lat0 = 0.7,
                             double width = 0.25) {
    InitSpec s;
    s.name = "baroclinic";
    s.tracers = with_tracers;
    s.generate = [u0, t0, amp, lon0, lat0, width](
                     const mesh::CubedSphere& m, const homme::Dims& d,
                     const InitSpec&) {
      return homme::baroclinic(m, d, u0, t0, amp, lon0, lat0, width);
    };
    return s;
  }

  static InitSpec solid_body(bool with_tracers = true, double u0 = 20.0,
                             double t0 = 300.0) {
    InitSpec s;
    s.name = "solid-body";
    s.tracers = with_tracers;
    s.generate = [u0, t0](const mesh::CubedSphere& m, const homme::Dims& d,
                          const InitSpec&) {
      return homme::solid_body_rotation(m, d, u0, t0);
    };
    return s;
  }

  static InitSpec isothermal_rest(bool with_tracers = true,
                                  double t0 = 300.0) {
    InitSpec s;
    s.name = "isothermal-rest";
    s.tracers = with_tracers;
    s.generate = [t0](const mesh::CubedSphere& m, const homme::Dims& d,
                      const InitSpec&) {
      return homme::isothermal_rest(m, d, t0);
    };
    return s;
  }
};

}  // namespace scenario
