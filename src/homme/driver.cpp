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

/// s <- a*x + b*y elementwise over dynamical fields, in vpack lanes.
void blend(const Dims& d, double a, const State& x, double b, const State& y,
           State& out) {
  const std::size_t fs = d.field_size();
  auto axpby = [&](const Chunk& xc, const Chunk& yc, Chunk& oc) {
    const double* xp = xc.data();
    const double* yp = yc.data();
    double* op = oc.mutable_span().data();
    for (std::size_t f = 0; f < fs; f += vpack::width) {
      (a * vpack::load(xp + f) + b * vpack::load(yp + f)).store(op + f);
    }
  };
  for (std::size_t e = 0; e < out.size(); ++e) {
    axpby(x[e].u1, y[e].u1, out[e].u1);
    axpby(x[e].u2, y[e].u2, out[e].u2);
    axpby(x[e].T, y[e].T, out[e].T);
    axpby(x[e].dp, y[e].dp, out[e].dp);
  }
}

}  // namespace

void Diagnostics::merge(const Diagnostics& o) {
  dry_mass += o.dry_mass;
  total_energy += o.total_energy;
  max_wind = std::max(max_wind, o.max_wind);
  min_dp = std::min(min_dp, o.min_dp);
  max_t = std::max(max_t, o.max_t);
  min_t = std::min(min_t, o.min_t);
}

Dycore::Dycore(const mesh::CubedSphere& m, const Dims& d, DycoreConfig cfg,
               std::vector<int> elems)
    : mesh_(m), dims_(d), cfg_(cfg), elems_(std::move(elems)),
      min_dx_(smallest_gll_spacing(m)) {
  if (elems_.empty()) {
    elems_.resize(static_cast<std::size_t>(m.nelem()));
    std::iota(elems_.begin(), elems_.end(), 0);
  }
  if (cfg_.dt <= 0.0) cfg_.dt = stable_dt(m);
  if (cfg_.nu < 0.0) {
    // Damp the 2-dx wave by ~1% of its amplitude per step:
    // nu * dt * (pi/dx)^4 ~ 0.01 => nu = 0.01 dx^4 / (pi^4 dt).
    const double dx4 = std::pow(min_dx_, 4);
    cfg_.nu = 0.01 * dx4 / (97.4 * cfg_.dt);
  }
  stage1_.assign(elems_.size(), ElementState(d));
  stage2_.assign(elems_.size(), ElementState(d));
}

double Dycore::stable_dt(const mesh::CubedSphere& m, double cmax) {
  return 0.25 * smallest_gll_spacing(m) / cmax;
}

void Dycore::step(State& s) { step(s, Exchange(mesh_)); }

void Dycore::step(State& s, const Exchange& exchange) {
  assert(exchange.nelem() == static_cast<int>(elems_.size()));
  assert(s.size() == elems_.size());
  const double dt = cfg_.dt;
  const Exchange x = exchange.traced(trk_);
  obs::ScopedSpan step_span(trk_, "dyn:step");

  // SSP-RK3 (Shu-Osher) on the dynamical fields; tracers ride along via
  // the separate euler_step below, as in CAM-SE's subcycling.
  {
    obs::ScopedSpan span(trk_, "dyn:rhs_stage");
    compute_and_apply_rhs(x, dims_, s, s, dt, stage1_);
  }

  {
    obs::ScopedSpan span(trk_, "dyn:rhs_stage");
    compute_and_apply_rhs(x, dims_, stage1_, stage1_, dt, stage2_);
  }
  blend(dims_, 0.75, s, 0.25, stage2_, stage1_);

  {
    obs::ScopedSpan span(trk_, "dyn:rhs_stage");
    compute_and_apply_rhs(x, dims_, stage1_, stage1_, dt, stage2_);
  }
  blend(dims_, 1.0 / 3.0, s, 2.0 / 3.0, stage2_, stage1_);

  for (std::size_t e = 0; e < s.size(); ++e) {
    std::swap(s[e].u1, stage1_[e].u1);
    std::swap(s[e].u2, stage1_[e].u2);
    std::swap(s[e].T, stage1_[e].T);
    std::swap(s[e].dp, stage1_[e].dp);
  }

  if (dims_.qsize > 0) {
    obs::ScopedSpan span(trk_, "dyn:euler");
    euler_step(x, dims_, s, dt, cfg_.limit_tracers);
  }

  if (cfg_.hypervis_on) {
    obs::ScopedSpan span(trk_, "dyn:hypervis");
    hypervis_dp2(x, dims_, s, cfg_.nu, dt);
    biharmonic_dp3d(x, dims_, s, cfg_.nu, dt);
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

Diagnostics Dycore::diagnose(const State& s) const {
  Diagnostics out;
  out.min_dp = std::numeric_limits<double>::max();
  out.max_t = -std::numeric_limits<double>::max();
  out.min_t = std::numeric_limits<double>::max();
  for (std::size_t se = 0; se < elems_.size(); ++se) {
    const auto& g = mesh_.geom(elems_[se]);
    for (int lev = 0; lev < dims_.nlev; ++lev) {
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
