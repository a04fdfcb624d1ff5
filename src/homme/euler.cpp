#include "homme/euler.hpp"

#include <algorithm>
#include <type_traits>

#include "homme/dss.hpp"
#include "homme/exchange.hpp"
#include "homme/scratch.hpp"
#include "homme/vpack.hpp"

namespace homme {

using mesh::kNpp;

void tracer_rhs_level(const MetricView& g, const double* u1,
                      const double* u2, const double* q, double* r) {
  double f1[kNpp], f2[kNpp];
  for (int p = 0; p < kTilePacks; ++p) {
    const int k = p * vpack::width;
    const vpack vq = vpack::load(q + k);
    (vpack::load(u1 + k) * vq).store(f1 + k);
    (vpack::load(u2 + k) * vq).store(f2 + k);
  }
  divergence_sphere(g, f1, f2, r);
  for (int p = 0; p < kTilePacks; ++p) {
    const int k = p * vpack::width;
    (-vpack::load(r + k)).store(r + k);
  }
}

void element_tracer_rhs(const mesh::ElementGeom& g, const Dims& d,
                        const ElementState& es,
                        std::span<const double> qdp, std::span<double> rhs) {
  const MetricView mview = g;
  for (int lev = 0; lev < d.nlev; ++lev) {
    const std::size_t l = fidx(lev, 0);
    tracer_rhs_level(mview, es.u1.data() + l, es.u2.data() + l,
                     qdp.data() + l, rhs.data() + l);
  }
}

namespace {

/// Column k of levels lev.. of the [lev][kNpp] tile \p q, one level per
/// lane of T: a double is level lev; a vpack comes out of the width x
/// width blocks that vpack::transpose turns.
template <class T>
void load_levels(const double* q, int lev, T (&col)[kNpp]) {
  if constexpr (std::is_same_v<T, double>) {
    for (int k = 0; k < kNpp; ++k) col[k] = q[fidx(lev, k)];
  } else {
    constexpr int W = vpack::width;
    for (int k = 0; k < kNpp; k += W) {
      vpack b[W];
      for (int r = 0; r < W; ++r) b[r] = vpack::load(q + fidx(lev + r, k));
      vpack::transpose(b);
      for (int c = 0; c < W; ++c) col[k + c] = b[c];
    }
  }
}

/// load_levels' inverse.
template <class T>
void store_levels(T (&col)[kNpp], int lev, double* q) {
  if constexpr (std::is_same_v<T, double>) {
    for (int k = 0; k < kNpp; ++k) q[fidx(lev, k)] = col[k];
  } else {
    constexpr int W = vpack::width;
    for (int k = 0; k < kNpp; k += W) {
      vpack b[W];
      for (int c = 0; c < W; ++c) b[c] = col[k + c];
      vpack::transpose(b);
      for (int r = 0; r < W; ++r) b[r].store(q + fidx(lev + r, k));
    }
  }
}

/// The limiter on the Lanes<T>::width levels from \p lev, one level per
/// lane: each lane sums its level's kNpp points in k order and takes its
/// level's branch through lane masks, so its bits are the scalar body's.
template <class T>
void limit_levels(const mesh::ElementGeom& g, int lev, double* q) {
  T col[kNpp];
  load_levels(q, lev, col);
  T mass = Lanes<T>::fill(0.0), positive = Lanes<T>::fill(0.0);
  for (int k = 0; k < kNpp; ++k) {
    const double w = g.mass[static_cast<std::size_t>(k)];
    mass = mass + w * col[k];
    positive = select(col[k] > 0.0, positive + w * col[k], positive);
  }
  // Nothing positive to redistribute: clip to zero. Nothing negative:
  // leave the level as it is. Otherwise rescale the positive values.
  const auto clip = mass <= 0.0;
  const auto keep = positive == mass;
  if (!any(clip | !keep)) return;
  const T scale = mass / positive;
  const T zero = Lanes<T>::fill(0.0);
  for (int k = 0; k < kNpp; ++k) {
    const T v = col[k];
    col[k] = select(clip, select(v < 0.0, zero, v),
                    select(keep, v, select(v > 0.0, v * scale, zero)));
  }
  store_levels(col, lev, q);
}

}  // namespace

void positivity_limiter(const mesh::ElementGeom& g, int nlev,
                        std::span<double> qdp) {
  int lev = 0;
  for (; lev + vpack::width <= nlev; lev += vpack::width) {
    limit_levels<vpack>(g, lev, qdp.data());
  }
  for (; lev < nlev; ++lev) limit_levels<double>(g, lev, qdp.data());
}

void euler_step(const Exchange& x, const Dims& d, State& s, double dt,
                bool limit) {
  const int nelem = x.nelem();
  const std::size_t ne = static_cast<std::size_t>(nelem);
  const std::size_t fs = d.field_size();

  // Each stage updates the tracer's own slab of s in place: an element's
  // tendency reads only that element and is complete before its update is
  // written. The scratch arena holds the start-of-step tracer q0, one
  // element's tendency and the tracer's pointer table.
  ScratchArena& arena = ScratchArena::thread_local_arena();
  ScratchArena::Frame frame(arena);
  std::span<double> q0 = arena.alloc(ne * fs), rhs = arena.alloc(fs);

  for (int q = 0; q < d.qsize; ++q) {
    ScratchArena::Frame tracer(arena);
    const std::span<double*> qs_ptrs = arena_ptrs(
        arena, s, &ElementState::qdp, static_cast<std::size_t>(q) * fs);
    for (std::size_t e = 0; e < ne; ++e) {
      std::copy(qs_ptrs[e], qs_ptrs[e] + fs, q0.begin() + e * fs);
    }

    // SSP-RK3 (Shu-Osher): each stage = Euler step + convex combination,
    // with DSS (and optionally the limiter) after every stage.
    const double stage_w[3][2] = {
        {0.0, 1.0},              // q1 = q0 + dt L(q0)
        {0.75, 0.25},            // q2 = 3/4 q0 + 1/4 (q1 + dt L(q1))
        {1.0 / 3.0, 2.0 / 3.0}}; // q3 = 1/3 q0 + 2/3 (q2 + dt L(q2))
    for (int stage = 0; stage < 3; ++stage) {
      for (int e = 0; e < nelem; ++e) {
        const std::size_t se = static_cast<std::size_t>(e);
        double* qe = qs_ptrs[se];
        element_tracer_rhs(x.geom(e), d, s[se], {qe, fs}, rhs);
        const double a = stage_w[stage][0];
        const double b = stage_w[stage][1];
        const double* q0e = q0.data() + se * fs;
        for (std::size_t f = 0; f < fs; f += vpack::width) {
          (a * vpack::load(q0e + f) +
           b * (vpack::load(qe + f) + dt * vpack::load(rhs.data() + f)))
              .store(qe + f);
        }
      }
      x.dss(qs_ptrs, d.nlev);
      if (limit) {
        for (std::size_t e = 0; e < ne; ++e) {
          positivity_limiter(x.geom(static_cast<int>(e)), d.nlev,
                             {qs_ptrs[e], fs});
        }
      }
    }
  }
}

double tracer_mass(const mesh::CubedSphere& m, const Dims& d, const State& s,
                   int tracer) {
  double total = 0.0;
  for (int e = 0; e < m.nelem(); ++e) {
    const auto& g = m.geom(e);
    auto q = s[static_cast<std::size_t>(e)].q(tracer, d);
    for (int lev = 0; lev < d.nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        total += g.mass[static_cast<std::size_t>(k)] * q[fidx(lev, k)];
      }
    }
  }
  return total;
}

}  // namespace homme
