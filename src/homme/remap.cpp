#include "homme/remap.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>

#include "homme/scratch.hpp"
#include "homme/vpack.hpp"

namespace homme {

using mesh::kNpp;

namespace {

/// Fritsch-Carlson monotone cubic Hermite slopes \p m for data \p y on the
/// nlev + 1 nodes whose nlev spacings are \p width, in lanes of T (level l
/// at l * W). \p delta is work of nlev values.
template <class T>
void monotone_slopes(std::size_t nlev, const double* width, const double* y,
                     double* m, double* delta) {
  using L = Lanes<T>;
  constexpr std::size_t W = Lanes<T>::width;
  for (std::size_t i = 0; i < nlev; ++i) {
    L::store((L::load(y + (i + 1) * W) - L::load(y + i * W)) /
                 L::load(width + i * W),
             delta + i * W);
  }
  L::store(L::load(delta), m);
  L::store(L::load(delta + (nlev - 1) * W), m + nlev * W);
  for (std::size_t i = 1; i < nlev; ++i) {
    const T d0 = L::load(delta + (i - 1) * W), d1 = L::load(delta + i * W);
    L::store(select(d0 * d1 <= 0.0, L::fill(0.0), 0.5 * (d0 + d1)),
             m + i * W);
  }
  for (std::size_t i = 0; i < nlev; ++i) {
    // For finite y a zero secant has +0 slopes: s is NaN and s > 9 false.
    const T d = L::load(delta + i * W);
    const T mi = L::load(m + i * W), mj = L::load(m + (i + 1) * W);
    // A lane with mi^2 + mj^2 < 8.99 d^2 and d^2 in (1e-290, 1e290) has
    // s < 9 once rounded, so the limiter leaves it: the test's six
    // roundings and s's five each err by a factor of at most 1 + 2^-53 (a
    // square that underflows, by at most 2^-1074, far below 8.99 d^2),
    // which leaves s below 8.99 (1 + 12 * 2^-53). NaN, infinite and zero
    // secants fail the test. An interval of such lanes skips the divides.
    const T d2 = d * d;
    const auto settled =
        (d2 > 1e-290) & (d2 < 1e290) & (mi * mi + mj * mj < 8.99 * d2);
    if (!any(!settled)) continue;
    const T a = mi / d;
    const T b = mj / d;
    const T s = a * a + b * b;
    const auto limit = s > 9.0;
    if (!any(limit)) continue;
    const T tau =
        3.0 / per_lane([](double x) { return std::sqrt(x); }, s);
    L::store(select(limit, tau * a * d, mi), m + i * W);
    L::store(select(limit, tau * b * d, mj), m + (i + 1) * W);
  }
}

/// Whether a column's source and target masses disagree beyond roundoff.
bool masses_differ(double src_mass, double tgt_mass) {
  return std::abs(src_mass - tgt_mass) >
         1e-8 * std::max(1.0, std::abs(src_mass));
}

/// The remappability guard of one contiguous column: strictly positive
/// layer thicknesses and column masses that agree to roundoff.
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
  assert(!masses_differ(src_mass, tgt_mass));
  if (masses_differ(src_mass, tgt_mass)) {
    throw RemapError("remap_column: column mass mismatch (source " +
                     std::to_string(src_mass) + ", target " +
                     std::to_string(tgt_mass) + ")");
  }
}

/// The guard of column \p k of an element's tiles (see
/// tile_columns_remappable): "" if it passes, else the RemapError message,
/// naming element \p e, column \p k and, for a thickness, the level.
std::string tile_column_fault(int nlev, const double* dp, const double* tgt,
                              const double* xs, const double* xt,
                              std::size_t e, int k) {
  for (int lev = 0; lev < nlev; ++lev) {
    const double sdp = dp[fidx(lev, k)];
    const double tdp = tgt[fidx(lev, k)];
    if (!(sdp > 0.0) || !(tdp > 0.0)) {
      return "vertical_remap: non-positive layer thickness (src dp=" +
             std::to_string(sdp) + ", tgt dp=" + std::to_string(tdp) +
             ") at level " + std::to_string(lev) + " of element " +
             std::to_string(e) + " column " + std::to_string(k);
    }
  }
  const double ms = xs[fidx(nlev, k)], mt = xt[fidx(nlev, k)];
  if (masses_differ(ms, mt)) {
    return "vertical_remap: column mass mismatch (source " +
           std::to_string(ms) + ", target " + std::to_string(mt) +
           ") in element " + std::to_string(e) + " column " +
           std::to_string(k);
  }
  return {};
}

/// Remap the kNpp columns of element \p e in place, one plan per W
/// adjacent columns: u1, u2, T, the tracers as mixing ratios, then dp
/// becomes the targets \p tgt. \p xs and \p xt are the cumulative source
/// and target tiles. With T = double each column is guarded first, so a
/// failing column throws RemapError after the columns before it were
/// remapped, as the column-at-a-time remap always did.
template <class T>
void remap_element(const Dims& d, ElementState& es, std::size_t e,
                   const double* xs, const double* xt, const double* tgt,
                   ScratchArena& arena) {
  using L = Lanes<T>;
  const int nlev = d.nlev;
  const std::size_t n = static_cast<std::size_t>(nlev);
  // Every prognostic field of this element is rewritten below; un-share
  // them once up front rather than per column.
  double* const fu1 = es.u1.mutable_span().data();
  double* const fu2 = es.u2.mutable_span().data();
  double* const fT = es.T.mutable_span().data();
  double* const fdp = es.dp.mutable_span().data();
  for (int k = 0; k < kNpp; k += L::width) {
    if constexpr (std::is_same_v<T, double>) {
      // Guard before any divide: a zero/negative layer thickness
      // (reachable under injected faults before rollback triggers) or a
      // mass-inconsistent column must surface, not silently remap.
      const std::string fault =
          tile_column_fault(nlev, fdp, tgt, xs, xt, e, k);
      if (!fault.empty()) throw RemapError(fault);
    }
    ScratchArena::Frame plan_frame(arena);
    const BasicColumnRemapPlan<T> plan(xs + k, xt + k, kNpp, n, arena);
    plan.apply(fdp + k, tgt + k, fu1 + k, kNpp);
    plan.apply(fdp + k, tgt + k, fu2 + k, kNpp);
    plan.apply(fdp + k, tgt + k, fT + k, kNpp);
    for (int q = 0; q < d.qsize; ++q) {
      // Tracers are carried as qdp; remap the mixing ratio and rebuild.
      double* const qf = es.q_mut(q, d).data();
      for (int lev = 0; lev < nlev; ++lev) {
        const std::size_t i = fidx(lev, k);
        L::store(L::load(qf + i) / L::load(fdp + i), qf + i);
      }
      plan.apply(fdp + k, tgt + k, qf + k, kNpp);
      for (int lev = 0; lev < nlev; ++lev) {
        const std::size_t i = fidx(lev, k);
        L::store(L::load(qf + i) * L::load(tgt + i), qf + i);
      }
    }
    for (int lev = 0; lev < nlev; ++lev) {
      const std::size_t i = fidx(lev, k);
      L::store(L::load(tgt + i), fdp + i);
    }
  }
}

}  // namespace

template <class T>
BasicColumnRemapPlan<T>::BasicColumnRemapPlan(std::size_t nlev,
                                              ScratchArena& arena)
    : nlev_(nlev),
      width_(arena.alloc(kLanes * nlev).data()),
      rec_(arena.alloc(kLanes * 7 * (nlev - 1)).data()),
      ys_(arena.alloc(kLanes * (nlev + 1)).data()),
      slopes_(arena.alloc(kLanes * (nlev + 1)).data()),
      delta_(arena.alloc(kLanes * nlev).data()) {}

template <class T>
BasicColumnRemapPlan<T>::BasicColumnRemapPlan(const double* xs,
                                              const double* xt,
                                              std::size_t stride,
                                              std::size_t nlev,
                                              ScratchArena& arena)
    : BasicColumnRemapPlan(nlev, arena) {
  build(xs, xt, stride);
}

template <class T>
BasicColumnRemapPlan<T> BasicColumnRemapPlan<T>::checked(
    std::span<const double> src_dp, std::span<const double> tgt_dp,
    ScratchArena& arena)
  requires(kLanes == 1)
{
  const std::size_t n = src_dp.size();
  assert(tgt_dp.size() == n);
  BasicColumnRemapPlan plan(n, arena);
  // The cumulative mass coordinates of both grids live in the work
  // buffers until the first apply().
  double* xs = plan.ys_;
  double* xt = plan.slopes_;
  xs[0] = 0.0;
  xt[0] = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    xs[k + 1] = xs[k] + src_dp[k];
    xt[k + 1] = xt[k] + tgt_dp[k];
  }
  check_column(src_dp, tgt_dp, xs[n], xt[n]);
  plan.build(xs, xt, 1);
  return plan;
}

template <class T>
void BasicColumnRemapPlan<T>::build(const double* xs, const double* xt,
                                    std::size_t stride) {
  using L = Lanes<T>;
  using Mask = typename Lanes<T>::mask;
  constexpr std::size_t W = kLanes;
  static_assert(sizeof(Mask) <= W * sizeof(double) &&
                    sizeof(int) * W <= W * sizeof(double),
                "a record field holds kLanes doubles");
  const std::size_t n = nlev_;
  for (std::size_t i = 0; i < n; ++i) {
    L::store(L::load(xs + (i + 1) * stride) - L::load(xs + i * stride),
             width_ + i * W);
  }
  const T bottom = L::load(xs), top = L::load(xs + n * stride);
  // Target interfaces increase, so each lane finds its containing source
  // interval by walking one cursor forward across all of them.
  int lo[W] = {};
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const T xq = L::load(xt + (k + 1) * stride);
    const Mask below = xq <= bottom;
    const Mask above = xq >= top;
    // Each lane's interval: its offset in the work buffers (level-major,
    // W lanes per level) and in xs. An early-out lane keeps interval 0;
    // its weights are computed and never used.
    int off[W], xoff[W];
    for (std::size_t i = 0; i < W; ++i) {
      int at = 0;
      if (!L::lane(below, static_cast<int>(i)) &&
          !L::lane(above, static_cast<int>(i))) {
        const double x = xt[(k + 1) * stride + i];
        while (xs[static_cast<std::size_t>(lo[i] + 1) * stride + i] <= x) {
          ++lo[i];
        }
        at = lo[i];
      }
      off[i] = at * static_cast<int>(W) + static_cast<int>(i);
      xoff[i] = at * static_cast<int>(stride) + static_cast<int>(i);
    }
    const T h = L::gather(width_, off);
    const T t = (xq - L::gather(xs, xoff)) / h;
    const T t2 = t * t, t3 = t2 * t;
    double* r = rec_ + 7 * W * k;
    L::store(2.0 * t3 - 3.0 * t2 + 1.0, r);
    L::store((t3 - 2.0 * t2 + t) * h, r + W);
    L::store(-2.0 * t3 + 3.0 * t2, r + 2 * W);
    L::store((t3 - t2) * h, r + 3 * W);
    std::memcpy(r + 4 * W, off, sizeof(off));
    std::memcpy(r + 5 * W, &below, sizeof(below));
    std::memcpy(r + 6 * W, &above, sizeof(above));
  }
}

template <class T>
void BasicColumnRemapPlan<T>::apply(const double* src_dp,
                                    const double* tgt_dp, double* q,
                                    std::size_t stride) const {
  using L = Lanes<T>;
  using Mask = typename Lanes<T>::mask;
  constexpr std::size_t W = kLanes;
  const std::size_t n = nlev_;
  // Cumulative integral of q on the source grid, its monotone cubic fit,
  // and the fit differenced at the target interfaces.
  T y = L::fill(0.0);
  L::store(y, ys_);
  for (std::size_t k = 0; k < n; ++k) {
    y = y + L::load(q + k * stride) * L::load(src_dp + k * stride);
    L::store(y, ys_ + (k + 1) * W);
  }
  monotone_slopes<T>(n, width_, ys_, slopes_, delta_);
  const T y0 = L::load(ys_), yn = y;
  T prev = L::fill(0.0);
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const double* r = rec_ + 7 * W * k;
    int off[W];
    std::memcpy(off, r + 4 * W, sizeof(off));
    T cur = L::load(r) * L::gather(ys_, off) +
            L::load(r + W) * L::gather(slopes_, off) +
            L::load(r + 2 * W) * L::gather(ys_ + W, off) +
            L::load(r + 3 * W) * L::gather(slopes_ + W, off);
    Mask below, above;
    std::memcpy(&below, r + 5 * W, sizeof(below));
    std::memcpy(&above, r + 6 * W, sizeof(above));
    if (any(below | above)) cur = select(below, y0, select(above, yn, cur));
    L::store((cur - prev) / L::load(tgt_dp + k * stride), q + k * stride);
    prev = cur;
  }
  L::store((yn - prev) / L::load(tgt_dp + (n - 1) * stride),
           q + (n - 1) * stride);
}

template class BasicColumnRemapPlan<double>;
template class BasicColumnRemapPlan<vpack>;

void remap_column(std::span<const double> src_dp,
                  std::span<const double> tgt_dp, std::span<double> q) {
  assert(tgt_dp.size() == src_dp.size() && q.size() == src_dp.size());
  ScratchArena& arena = ScratchArena::thread_local_arena();
  ScratchArena::Frame frame(arena);
  ColumnRemapPlan::checked(src_dp, tgt_dp, arena).apply(src_dp, tgt_dp, q);
}

void remap_targets(const HybridCoord& hc, const double* mass, double* tgt) {
  for (int lev = 0; lev < hc.nlev; ++lev) {
    for (int p = 0; p < kTilePacks; ++p) {
      const int k = p * vpack::width;
      remap_target_dp(hc, lev, vpack::load(mass + k))
          .store(tgt + fidx(lev, k));
    }
  }
}

void cumulative_tiles(int nlev, const double* dp, double* x) {
  for (int p = 0; p < kTilePacks; ++p) {
    vpack::zero().store(x + p * vpack::width);
  }
  for (int lev = 0; lev < nlev; ++lev) {
    const double* dpl = dp + fidx(lev, 0);
    const double* cur = x + fidx(lev, 0);
    double* nxt = x + fidx(lev + 1, 0);
    for (int p = 0; p < kTilePacks; ++p) {
      const int k = p * vpack::width;
      (vpack::load(cur + k) + vpack::load(dpl + k)).store(nxt + k);
    }
  }
}

bool tile_columns_remappable(int nlev, const double* dp, const double* tgt,
                             const double* xs, const double* xt) {
  // tile_column_fault's predicates, the thicknesses a pack at a time.
  for (int lev = 0; lev < nlev; ++lev) {
    for (int p = 0; p < kTilePacks; ++p) {
      const std::size_t i = fidx(lev, p * vpack::width);
      const vpack::mask src_ok = vpack::load(dp + i) > 0.0;
      const vpack::mask tgt_ok = vpack::load(tgt + i) > 0.0;
      if (any(!(src_ok & tgt_ok))) return false;
    }
  }
  for (int k = 0; k < kNpp; ++k) {
    if (masses_differ(xs[fidx(nlev, k)], xt[fidx(nlev, k)])) return false;
  }
  return true;
}

void vertical_remap_local(const Dims& d, State& s) {
  const HybridCoord hc = HybridCoord::uniform(d.nlev);
  const int nlev = d.nlev;
  const std::size_t n = static_cast<std::size_t>(nlev);
  const std::size_t fs = d.field_size();

  // Arena layout per element: two interface tiles ((nlev+1) x kNpp) for
  // the cumulative mass coordinates, one layer tile for the target
  // thicknesses, and one plan at a time.
  ScratchArena& arena = ScratchArena::thread_local_arena();
  ScratchArena::Frame frame(arena);

  double* const xs = arena.alloc((n + 1) * kNpp).data();
  double* const xt = arena.alloc((n + 1) * kNpp).data();
  double* const tgt = arena.alloc(fs).data();

  for (std::size_t e = 0; e < s.size(); ++e) {
    ElementState& es = s[e];
    // Tiled vertical scans: the cumulative source-mass coordinate of all
    // kNpp columns advances level by level, 16 lanes wide; the reference
    // target thicknesses follow from each column's total mass, then the
    // same scan gives the target coordinate.
    cumulative_tiles(nlev, es.dp.data(), xs);
    remap_targets(hc, xs + fidx(nlev, 0), tgt);
    cumulative_tiles(nlev, tgt, xt);

    // Four columns per plan once all 16 pass the guard; an element with a
    // failing column remaps column by column up to it and throws there.
    if (tile_columns_remappable(nlev, es.dp.data(), tgt, xs, xt)) {
      remap_element<vpack>(d, es, e, xs, xt, tgt, arena);
    } else {
      remap_element<double>(d, es, e, xs, xt, tgt, arena);
    }
  }
}

}  // namespace homme
