#include "homme/remap.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "homme/scratch.hpp"
#include "homme/vpack.hpp"

namespace homme {

using mesh::kNpp;

namespace {

/// Fritsch-Carlson monotone cubic Hermite slopes \p m for data y_i on
/// nodes whose spacing is \p width. \p delta is caller-provided scratch
/// of n-1 entries.
void monotone_slopes(std::span<const double> width, std::span<const double> y,
                     std::span<double> m, std::span<double> delta) {
  const std::size_t n = y.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    delta[i] = (y[i + 1] - y[i]) / width[i];
  }
  m[0] = delta[0];
  m[n - 1] = delta[n - 2];
  for (std::size_t i = 1; i + 1 < n; ++i) {
    m[i] = (delta[i - 1] * delta[i] <= 0.0)
               ? 0.0
               : 0.5 * (delta[i - 1] + delta[i]);
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (delta[i] == 0.0) {
      m[i] = 0.0;
      m[i + 1] = 0.0;
      continue;
    }
    const double a = m[i] / delta[i];
    const double b = m[i + 1] / delta[i];
    const double s = a * a + b * b;
    if (s > 9.0) {
      const double tau = 3.0 / std::sqrt(s);
      m[i] = tau * a * delta[i];
      m[i + 1] = tau * b * delta[i];
    }
  }
}

/// ColumnRemapPlan::at_ codes of the two early-outs: the interface lies
/// at or below the first source node, or at or above the last.
constexpr double kBelow = -1.0;
constexpr double kAbove = -2.0;

/// The remappability guard of one column: strictly positive layer
/// thicknesses and column masses that agree to roundoff.
void check_column(std::span<const double> src_dp,
                  std::span<const double> tgt_dp, double src_mass,
                  double tgt_mass) {
  const std::size_t n = src_dp.size();
  for (std::size_t k = 0; k < n; ++k) {
    if (!(src_dp[k] > 0.0)) {
      throw RemapError("remap_column: non-positive source thickness dp=" +
                       std::to_string(src_dp[k]) + " at level " +
                       std::to_string(k));
    }
    if (!(tgt_dp[k] > 0.0)) {
      throw RemapError("remap_column: non-positive target thickness dp=" +
                       std::to_string(tgt_dp[k]) + " at level " +
                       std::to_string(k));
    }
  }
  // The totals must agree (same column mass); tolerate roundoff. Kept as
  // an assert too so debug builds stop in the debugger at the caller.
  assert(std::abs(src_mass - tgt_mass) <=
         1e-8 * std::max(1.0, std::abs(src_mass)));
  if (std::abs(src_mass - tgt_mass) >
      1e-8 * std::max(1.0, std::abs(src_mass))) {
    throw RemapError("remap_column: column mass mismatch (source " +
                     std::to_string(src_mass) + ", target " +
                     std::to_string(tgt_mass) + ")");
  }
}

}  // namespace

ColumnRemapPlan::ColumnRemapPlan(std::size_t nlev, ScratchArena& arena)
    : width_(arena.alloc(nlev)),
      at_(arena.alloc(nlev - 1)),
      w_(arena.alloc(4 * (nlev - 1))),
      ys_(arena.alloc(nlev + 1)),
      slopes_(arena.alloc(nlev + 1)),
      delta_(arena.alloc(nlev)) {}

ColumnRemapPlan::ColumnRemapPlan(std::span<const double> xs,
                                 std::span<const double> xt,
                                 ScratchArena& arena)
    : ColumnRemapPlan(xs.size() - 1, arena) {
  build(xs, xt);
}

ColumnRemapPlan ColumnRemapPlan::checked(std::span<const double> src_dp,
                                         std::span<const double> tgt_dp,
                                         ScratchArena& arena) {
  const std::size_t n = src_dp.size();
  assert(tgt_dp.size() == n);
  ColumnRemapPlan plan(n, arena);
  // The cumulative mass coordinates of both grids live in the work
  // buffers until the first apply().
  std::span<double> xs = plan.ys_, xt = plan.slopes_;
  xs[0] = 0.0;
  xt[0] = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    xs[k + 1] = xs[k] + src_dp[k];
    xt[k + 1] = xt[k] + tgt_dp[k];
  }
  check_column(src_dp, tgt_dp, xs[n], xt[n]);
  plan.build(xs, xt);
  return plan;
}

void ColumnRemapPlan::build(std::span<const double> xs,
                            std::span<const double> xt) {
  const std::size_t n = width_.size();
  for (std::size_t i = 0; i < n; ++i) width_[i] = xs[i + 1] - xs[i];
  // Target interfaces increase, so the containing source interval is
  // found by walking one cursor forward across all of them.
  std::size_t lo = 0;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const double xq = xt[k + 1];
    if (xq <= xs[0]) {
      at_[k] = kBelow;
      continue;
    }
    if (xq >= xs[n]) {
      at_[k] = kAbove;
      continue;
    }
    while (xs[lo + 1] <= xq) ++lo;
    const double h = width_[lo];
    const double t = (xq - xs[lo]) / h;
    const double t2 = t * t, t3 = t2 * t;
    double* w = w_.data() + 4 * k;
    w[0] = 2 * t3 - 3 * t2 + 1;
    w[1] = (t3 - 2 * t2 + t) * h;
    w[2] = -2 * t3 + 3 * t2;
    w[3] = (t3 - t2) * h;
    at_[k] = static_cast<double>(lo);
  }
}

void ColumnRemapPlan::apply(std::span<const double> src_dp,
                            std::span<const double> tgt_dp,
                            std::span<double> q) const {
  const std::size_t n = width_.size();
  assert(src_dp.size() == n && tgt_dp.size() == n && q.size() == n);
  // Cumulative integral of q on the source grid, its monotone cubic fit,
  // and the fit differenced at the target interfaces.
  ys_[0] = 0.0;
  for (std::size_t k = 0; k < n; ++k) ys_[k + 1] = ys_[k] + q[k] * src_dp[k];
  monotone_slopes(width_, ys_, slopes_, delta_);
  double prev = 0.0;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    double cur;
    if (at_[k] == kBelow) {
      cur = ys_[0];
    } else if (at_[k] == kAbove) {
      cur = ys_[n];
    } else {
      const std::size_t lo = static_cast<std::size_t>(at_[k]);
      const double* w = w_.data() + 4 * k;
      cur = w[0] * ys_[lo] + w[1] * slopes_[lo] + w[2] * ys_[lo + 1] +
            w[3] * slopes_[lo + 1];
    }
    q[k] = (cur - prev) / tgt_dp[k];
    prev = cur;
  }
  q[n - 1] = (ys_[n] - prev) / tgt_dp[n - 1];
}

void remap_column(std::span<const double> src_dp,
                  std::span<const double> tgt_dp, std::span<double> q) {
  const std::size_t n = src_dp.size();
  assert(tgt_dp.size() == n && q.size() == n);

  ScratchArena& arena = ScratchArena::thread_local_arena();
  const std::size_t need = ColumnRemapPlan::scratch_doubles(n);
  if (arena.capacity() < need) arena.require(need);
  ScratchArena::Frame frame(arena);
  ColumnRemapPlan::checked(src_dp, tgt_dp, arena).apply(src_dp, tgt_dp, q);
}

void vertical_remap(const mesh::CubedSphere& m, const Dims& d, State& s) {
  assert(static_cast<std::size_t>(m.nelem()) == s.size());
  (void)m;
  vertical_remap_local(d, s);
}

void vertical_remap_local(const Dims& d, State& s) {
  const HybridCoord hc = HybridCoord::uniform(d.nlev);
  const int nlev = d.nlev;
  const std::size_t n = static_cast<std::size_t>(nlev);
  const std::size_t fs = d.field_size();

  // Arena layout per element: two SoA interface tiles ((nlev+1) x kNpp)
  // for the cumulative mass coordinates, one SoA layer tile for the
  // target thicknesses, five per-column strips and one column plan.
  ScratchArena& arena = ScratchArena::thread_local_arena();
  const std::size_t need = 2 * (n + 1) * kNpp + fs + 2 * (n + 1) + 3 * n +
                           ColumnRemapPlan::scratch_doubles(n);
  if (arena.capacity() < need) arena.require(need);
  ScratchArena::Frame frame(arena);

  std::span<double> xs_soa = arena.alloc((n + 1) * kNpp);
  std::span<double> xt_soa = arena.alloc((n + 1) * kNpp);
  std::span<double> tgt_soa = arena.alloc(fs);
  std::span<double> xs = arena.alloc(n + 1), xt = arena.alloc(n + 1),
                    src = arena.alloc(n), tgt = arena.alloc(n),
                    col = arena.alloc(n);

  for (std::size_t e = 0; e < s.size(); ++e) {
    ElementState& es = s[e];

    // Tiled vertical scan: the cumulative source-mass coordinate of all
    // kNpp columns advances level by level, 16 lanes wide, instead of one
    // strided column at a time.
    for (int p = 0; p < kTilePacks; ++p) {
      vpack::zero().store(xs_soa.data() + p * vpack::width);
    }
    for (int lev = 0; lev < nlev; ++lev) {
      const double* dpl = es.dp.data() + fidx(lev, 0);
      double* cur = xs_soa.data() + fidx(lev, 0);
      double* nxt = xs_soa.data() + fidx(lev + 1, 0);
      for (int p = 0; p < kTilePacks; ++p) {
        const int k = p * vpack::width;
        (vpack::load(cur + k) + vpack::load(dpl + k)).store(nxt + k);
      }
    }

    // Reference target thicknesses from each column's surface pressure
    // ps = ptop + total mass, evaluated 16 columns at a time, then the
    // same tiled scan for the target coordinate.
    for (int lev = 0; lev < nlev; ++lev) {
      const double a0 = hc.hyai[static_cast<std::size_t>(lev)] * kP0;
      const double a1 = hc.hyai[static_cast<std::size_t>(lev) + 1] * kP0;
      const double b0 = hc.hybi[static_cast<std::size_t>(lev)];
      const double b1 = hc.hybi[static_cast<std::size_t>(lev) + 1];
      const double* total = xs_soa.data() + fidx(nlev, 0);
      double* tl = tgt_soa.data() + fidx(lev, 0);
      for (int p = 0; p < kTilePacks; ++p) {
        const int k = p * vpack::width;
        const vpack ps = vpack::load(total + k) + kPtop;
        ((b1 * ps + a1) - (b0 * ps + a0)).store(tl + k);
      }
    }
    for (int p = 0; p < kTilePacks; ++p) {
      vpack::zero().store(xt_soa.data() + p * vpack::width);
    }
    for (int lev = 0; lev < nlev; ++lev) {
      const double* tl = tgt_soa.data() + fidx(lev, 0);
      double* cur = xt_soa.data() + fidx(lev, 0);
      double* nxt = xt_soa.data() + fidx(lev + 1, 0);
      for (int p = 0; p < kTilePacks; ++p) {
        const int k = p * vpack::width;
        (vpack::load(cur + k) + vpack::load(tl + k)).store(nxt + k);
      }
    }

    // Every prognostic field of this element is rewritten below; un-share
    // them once up front rather than per column.
    std::span<double> fu1 = es.u1.mutable_span(), fu2 = es.u2.mutable_span(),
                      fT = es.T.mutable_span(), fdp = es.dp.mutable_span();

    for (int k = 0; k < kNpp; ++k) {
      for (int lev = 0; lev <= nlev; ++lev) {
        xs[static_cast<std::size_t>(lev)] = xs_soa[fidx(lev, k)];
        xt[static_cast<std::size_t>(lev)] = xt_soa[fidx(lev, k)];
      }
      for (int lev = 0; lev < nlev; ++lev) {
        src[static_cast<std::size_t>(lev)] = es.dp[fidx(lev, k)];
        tgt[static_cast<std::size_t>(lev)] = tgt_soa[fidx(lev, k)];
      }
      // Guard before any divide: a zero/negative layer thickness
      // (reachable under injected faults before rollback triggers) or a
      // mass-inconsistent column must surface, not silently remap.
      for (int lev = 0; lev < nlev; ++lev) {
        const double sdp = src[static_cast<std::size_t>(lev)];
        const double tdp = tgt[static_cast<std::size_t>(lev)];
        if (!(sdp > 0.0) || !(tdp > 0.0)) {
          throw RemapError(
              "vertical_remap: non-positive layer thickness (src dp=" +
              std::to_string(sdp) + ", tgt dp=" + std::to_string(tdp) +
              ") at level " + std::to_string(lev) + " of element " +
              std::to_string(e) + " column " + std::to_string(k));
        }
      }
      if (std::abs(xs[n] - xt[n]) > 1e-8 * std::max(1.0, std::abs(xs[n]))) {
        throw RemapError("vertical_remap: column mass mismatch (source " +
                         std::to_string(xs[n]) + ", target " +
                         std::to_string(xt[n]) + ") in element " +
                         std::to_string(e) + " column " + std::to_string(k));
      }

      ScratchArena::Frame plan_frame(arena);
      const ColumnRemapPlan plan(xs, xt, arena);
      auto remap_field = [&](double* field) {
        for (int lev = 0; lev < nlev; ++lev) {
          col[static_cast<std::size_t>(lev)] = field[fidx(lev, k)];
        }
        plan.apply(src, tgt, col);
        for (int lev = 0; lev < nlev; ++lev) {
          field[fidx(lev, k)] = col[static_cast<std::size_t>(lev)];
        }
      };
      remap_field(fu1.data());
      remap_field(fu2.data());
      remap_field(fT.data());
      for (int q = 0; q < d.qsize; ++q) {
        // Tracers are carried as qdp; remap the mixing ratio and rebuild.
        auto qf = es.q_mut(q, d);
        for (int lev = 0; lev < nlev; ++lev) {
          col[static_cast<std::size_t>(lev)] =
              qf[fidx(lev, k)] / src[static_cast<std::size_t>(lev)];
        }
        plan.apply(src, tgt, col);
        for (int lev = 0; lev < nlev; ++lev) {
          qf[fidx(lev, k)] = col[static_cast<std::size_t>(lev)] *
                             tgt[static_cast<std::size_t>(lev)];
        }
      }
      for (int lev = 0; lev < nlev; ++lev) {
        fdp[fidx(lev, k)] = tgt[static_cast<std::size_t>(lev)];
      }
    }
  }
}

}  // namespace homme
