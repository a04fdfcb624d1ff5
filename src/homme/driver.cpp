#include "homme/driver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "homme/euler.hpp"
#include "homme/exchange.hpp"
#include "homme/hypervis.hpp"
#include "homme/remap.hpp"
#include "homme/rhs.hpp"
#include "homme/vpack.hpp"

namespace homme {

using mesh::kNpp;

namespace {

double smallest_gll_spacing(const mesh::CubedSphere& m) {
  // Distance between the two GLL points nearest an element edge of
  // element 0 is representative (the mesh is quasi-uniform).
  double best = std::numeric_limits<double>::max();
  const auto& g = m.geom(0);
  for (int j = 0; j < mesh::kNp; ++j) {
    for (int i = 0; i + 1 < mesh::kNp; ++i) {
      const auto& p = g.pos[static_cast<std::size_t>(mesh::gidx(i, j))];
      const auto& q = g.pos[static_cast<std::size_t>(mesh::gidx(i + 1, j))];
      const double d = std::sqrt((p[0] - q[0]) * (p[0] - q[0]) +
                                 (p[1] - q[1]) * (p[1] - q[1]) +
                                 (p[2] - q[2]) * (p[2] - q[2]));
      best = std::min(best, d);
    }
  }
  return best;
}

/// y <- a*x + b*y elementwise over dynamical fields, in vpack lanes.
void blend(const Dims& d, double a, const State& x, double b, State& y) {
  const std::size_t fs = d.field_size();
  auto axpby = [&](const Chunk& xc, Chunk& yc) {
    const double* xp = xc.data();
    double* yp = yc.mutable_span().data();
    for (std::size_t f = 0; f < fs; f += vpack::width) {
      (a * vpack::load(xp + f) + b * vpack::load(yp + f)).store(yp + f);
    }
  };
  for (std::size_t e = 0; e < y.size(); ++e) {
    axpby(x[e].u1, y[e].u1);
    axpby(x[e].u2, y[e].u2);
    axpby(x[e].T, y[e].T);
    axpby(x[e].dp, y[e].dp);
  }
}

}  // namespace

Dycore::Dycore(const mesh::CubedSphere& m, const Dims& d, DycoreConfig cfg,
               std::vector<int> elems)
    : mesh_(m), dims_(d), cfg_(cfg), elems_(std::move(elems)) {
  if (elems_.empty()) {
    elems_.resize(static_cast<std::size_t>(m.nelem()));
    std::iota(elems_.begin(), elems_.end(), 0);
    whole_ = std::make_unique<BndryExchange>(m);
  }
  if (cfg_.dt <= 0.0) cfg_.dt = stable_dt(m);
  // Damp the 2-dx wave by ~1% of its amplitude per step:
  // nu * dt * (pi/dx)^4 ~ 0.01 => nu = 0.01 dx^4 / (pi^4 dt).
  const double dx4 = std::pow(smallest_gll_spacing(m), 4);
  nu_ = 0.01 * dx4 / (97.4 * cfg_.dt);
  stage_.assign(elems_.size(), ElementState(d));
}

Dycore::~Dycore() = default;

double Dycore::stable_dt(const mesh::CubedSphere& m, double cmax) {
  return 0.25 * smallest_gll_spacing(m) / cmax;
}

void Dycore::step(State& s) {
  assert(whole_ != nullptr);
  step(s, Exchange(*whole_));
}

void Dycore::step(State& s, const Exchange& exchange) {
  assert(exchange.nelem() == static_cast<int>(elems_.size()));
  assert(s.size() == elems_.size());
  const double dt = cfg_.dt;
  const Exchange x = exchange.traced(trk_);
  obs::ScopedSpan step_span(trk_, "dyn:step");

  // SSP-RK3 (Shu-Osher) on the dynamical fields, in the one stage
  // buffer: stage 1 writes it from s, and stages 2 and 3 and both blends
  // update it in place, so s holds the step's start until the swap. The
  // buffer shares s's tracers until then, so every stage reads the step's
  // humidity, as HOMME reads qn0. Tracers ride along via the separate
  // euler_step below, as in CAM-SE's subcycling.
  for (std::size_t e = 0; e < s.size(); ++e) stage_[e].qdp = s[e].qdp;
  {
    obs::ScopedSpan span(trk_, "dyn:rhs_stage");
    compute_and_apply_rhs(x, dims_, s, dt, stage_);
  }

  {
    obs::ScopedSpan span(trk_, "dyn:rhs_stage");
    compute_and_apply_rhs(x, dims_, stage_, dt, stage_);
  }
  blend(dims_, 0.75, s, 0.25, stage_);

  {
    obs::ScopedSpan span(trk_, "dyn:rhs_stage");
    compute_and_apply_rhs(x, dims_, stage_, dt, stage_);
  }
  blend(dims_, 1.0 / 3.0, s, 2.0 / 3.0, stage_);

  for (std::size_t e = 0; e < s.size(); ++e) {
    std::swap(s[e].u1, stage_[e].u1);
    std::swap(s[e].u2, stage_[e].u2);
    std::swap(s[e].T, stage_[e].T);
    std::swap(s[e].dp, stage_[e].dp);
    // Drop the buffer's share of s's tracers, or euler_step's q_mut would
    // copy every tracer chunk.
    stage_[e].qdp = Chunk();
  }

  if (dims_.qsize > 0) {
    obs::ScopedSpan span(trk_, "dyn:euler");
    euler_step(x, dims_, s, dt, cfg_.limit_tracers);
  }

  if (cfg_.hypervis_on) {
    // The stage buffer is idle from the swap to the next step's stage 1.
    obs::ScopedSpan span(trk_, "dyn:hypervis");
    hypervis_dp2(x, dims_, s, stage_, nu_, dt);
    biharmonic_dp3d(x, dims_, s, nu_, dt);
  }

  ++step_count_;
  if (cfg_.remap_freq > 0 && step_count_ % cfg_.remap_freq == 0) {
    // Column-local: no exchange either way.
    obs::ScopedSpan span(trk_, "dyn:remap");
    if (accel_ != nullptr) {
      accel_->vertical_remap(s);
    } else {
      vertical_remap_local(dims_, s);
    }
  }
}

void Dycore::run(State& s, int n) {
  for (int i = 0; i < n; ++i) step(s);
}

Diagnostics diagnose(const mesh::CubedSphere& m, const Dims& d,
                     const State& s) {
  assert(s.size() == static_cast<std::size_t>(m.nelem()));
  Diagnostics out;
  out.min_dp = std::numeric_limits<double>::max();
  out.max_t = -std::numeric_limits<double>::max();
  out.min_t = std::numeric_limits<double>::max();
  for (std::size_t se = 0; se < s.size(); ++se) {
    const auto& g = m.geom(static_cast<int>(se));
    for (int lev = 0; lev < d.nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        const std::size_t f = fidx(lev, k);
        const double w = g.mass[static_cast<std::size_t>(k)];
        const double u1 = s[se].u1[f], u2 = s[se].u2[f];
        const double speed2 =
            g.g11[static_cast<std::size_t>(k)] * u1 * u1 +
            2.0 * g.g12[static_cast<std::size_t>(k)] * u1 * u2 +
            g.g22[static_cast<std::size_t>(k)] * u2 * u2;
        out.dry_mass += w * s[se].dp[f];
        out.total_energy +=
            w * s[se].dp[f] * (kCp * s[se].T[f] + 0.5 * speed2) / kGravity;
        out.max_wind = std::max(out.max_wind, std::sqrt(speed2));
        out.min_dp = std::min(out.min_dp, s[se].dp[f]);
        out.max_t = std::max(out.max_t, s[se].T[f]);
        out.min_t = std::min(out.min_t, s[se].T[f]);
      }
    }
  }
  return out;
}

}  // namespace homme
