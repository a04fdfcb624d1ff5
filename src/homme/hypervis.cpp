#include "homme/hypervis.hpp"

#include <cassert>

#include "homme/dss.hpp"
#include "homme/exchange.hpp"
#include "homme/ops.hpp"
#include "homme/scratch.hpp"
#include "homme/vpack.hpp"

namespace homme {

using mesh::kNpp;

namespace {

/// Laplacian of a multi-level scalar field into out (no DSS). \p out may
/// be \p field: laplace_sphere_wk reads a level tile whole before it
/// writes one.
void laplacian_field(const Exchange& x, int nlev,
                     std::span<double* const> field,
                     std::span<double* const> out) {
  for (int e = 0; e < x.nelem(); ++e) {
    const auto& g = x.geom(e);
    for (int lev = 0; lev < nlev; ++lev) {
      laplace_sphere_wk(g, field[static_cast<std::size_t>(e)] + fidx(lev, 0),
                        out[static_cast<std::size_t>(e)] + fidx(lev, 0));
    }
  }
}

/// lap <- Lap(Lap(field)), DSSed after each Laplacian; the second
/// Laplacian writes over the first.
void biharmonic(const Exchange& x, int nlev, std::span<double* const> field,
                std::span<double* const> lap) {
  laplacian_field(x, nlev, field, lap);
  x.dss(lap, nlev);
  laplacian_field(x, nlev, lap, lap);
  x.dss(lap, nlev);
}

/// y[se][:] += coef * x[se][:] over every element, vectorized.
void axpy_fields(int nelem, std::size_t fs, double coef,
                 std::span<double* const> x, std::span<double* const> y) {
  for (int e = 0; e < nelem; ++e) {
    const double* xe = x[static_cast<std::size_t>(e)];
    double* ye = y[static_cast<std::size_t>(e)];
    for (std::size_t f = 0; f < fs; f += vpack::width) {
      (vpack::load(ye + f) + coef * vpack::load(xe + f)).store(ye + f);
    }
  }
}

/// Rotate the wind of every element to Cartesian components.
void wind_to_cart(const Exchange& ex, const Dims& d, const State& s,
                  std::span<double* const> x, std::span<double* const> y,
                  std::span<double* const> z) {
  for (int e = 0; e < ex.nelem(); ++e) {
    const std::size_t se = static_cast<std::size_t>(e);
    const FrameView f = ex.geom(e);
    for (int lev = 0; lev < d.nlev; ++lev) {
      contra_to_cart(f, s[se].u1.data() + fidx(lev, 0),
                     s[se].u2.data() + fidx(lev, 0), x[se] + fidx(lev, 0),
                     y[se] + fidx(lev, 0), z[se] + fidx(lev, 0));
    }
  }
}

void cart_to_wind(const Exchange& ex, const Dims& d,
                  std::span<double* const> x, std::span<double* const> y,
                  std::span<double* const> z, State& s) {
  for (int e = 0; e < ex.nelem(); ++e) {
    const std::size_t se = static_cast<std::size_t>(e);
    const FrameView f = ex.geom(e);
    std::span<double> u1 = s[se].u1.mutable_span();
    std::span<double> u2 = s[se].u2.mutable_span();
    for (int lev = 0; lev < d.nlev; ++lev) {
      cart_to_contra(f, x[se] + fidx(lev, 0), y[se] + fidx(lev, 0),
                     z[se] + fidx(lev, 0), u1.data() + fidx(lev, 0),
                     u2.data() + fidx(lev, 0));
    }
  }
}

/// A biharmonic's one scratch field, in the caller's frame: a flat block
/// of nelem * fs doubles, uninitialized (the first Laplacian writes all of
/// it), and a pointer table into it.
std::span<double*> arena_field(ScratchArena& a, const Exchange& x,
                               std::size_t fs) {
  const std::size_t ne = static_cast<std::size_t>(x.nelem());
  std::span<double> flat = a.alloc(ne * fs);
  std::span<double*> ptrs = a.alloc_ptrs(ne);
  for (std::size_t e = 0; e < ne; ++e) ptrs[e] = flat.data() + e * fs;
  return ptrs;
}

}  // namespace

void hypervis_dp2(const Exchange& x, const Dims& d, State& s, State& work,
                  double nu, double dt) {
  assert(work.size() == s.size());
  const std::size_t fs = d.field_size();
  ScratchArena& arena = ScratchArena::thread_local_arena();
  ScratchArena::Frame frame(arena);
  const std::span<double*> lap = arena_field(arena, x, fs);
  const std::span<double*> ux = arena_ptrs(arena, work, &ElementState::u1);
  const std::span<double*> uy = arena_ptrs(arena, work, &ElementState::u2);
  const std::span<double*> uz = arena_ptrs(arena, work, &ElementState::T);
  wind_to_cart(x, d, s, ux, uy, uz);
  for (std::span<double* const> comp : {ux, uy, uz}) {
    biharmonic(x, d.nlev, comp, lap);
    axpy_fields(x.nelem(), fs, -nu * dt, lap, comp);
  }
  cart_to_wind(x, d, ux, uy, uz, s);

  const std::span<double*> Tp = arena_ptrs(arena, s, &ElementState::T);
  biharmonic(x, d.nlev, Tp, lap);
  axpy_fields(x.nelem(), fs, -nu * dt, lap, Tp);
  x.dss(Tp, d.nlev);
}

void biharmonic_dp3d(const Exchange& x, const Dims& d, State& s, double nu,
                     double dt) {
  const std::size_t fs = d.field_size();
  ScratchArena& arena = ScratchArena::thread_local_arena();
  ScratchArena::Frame frame(arena);
  const std::span<double*> lap = arena_field(arena, x, fs);
  const std::span<double*> dpp = arena_ptrs(arena, s, &ElementState::dp);
  biharmonic(x, d.nlev, dpp, lap);
  axpy_fields(x.nelem(), fs, -nu * dt, lap, dpp);
  x.dss(dpp, d.nlev);
}

}  // namespace homme
