#include "homme/hypervis.hpp"

#include "homme/exchange.hpp"
#include "homme/ops.hpp"
#include "homme/scratch.hpp"
#include "homme/vpack.hpp"

namespace homme {

using mesh::kNpp;

namespace {

/// Laplacian of a multi-level scalar field into out (no DSS).
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

/// Workspace: per-element field set carved from the scratch arena — one
/// flat block of nelem*fs doubles plus a pointer table into it.
struct ArenaFields {
  std::span<double*> ptrs;
  ArenaFields(ScratchArena& a, int nelem, std::size_t fs) {
    std::span<double> flat =
        a.alloc_zero(static_cast<std::size_t>(nelem) * fs);
    ptrs = a.alloc_ptrs(static_cast<std::size_t>(nelem));
    for (int e = 0; e < nelem; ++e) {
      ptrs[static_cast<std::size_t>(e)] =
          flat.data() + static_cast<std::size_t>(e) * fs;
    }
  }
};

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
    const auto& g = ex.geom(e);
    for (int lev = 0; lev < d.nlev; ++lev) {
      contra_to_cart(g, s[se].u1.data() + fidx(lev, 0),
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
    const auto& g = ex.geom(e);
    std::span<double> u1 = s[se].u1.mutable_span();
    std::span<double> u2 = s[se].u2.mutable_span();
    for (int lev = 0; lev < d.nlev; ++lev) {
      cart_to_contra(g, x[se] + fidx(lev, 0), y[se] + fidx(lev, 0),
                     z[se] + fidx(lev, 0), u1.data() + fidx(lev, 0),
                     u2.data() + fidx(lev, 0));
    }
  }
}

// Scratch sizing. The arena grows only while empty, so every public entry
// point reserves its own worst case *including nested callees* before
// taking a frame; when a public function is re-entered with allocations
// live (laplacian_update / biharmonic_scalar inside hypervis_*), the
// outer reservation already covers it and no growth is attempted. The
// deepest callee is always the exchange's DSS, whose scratch (the
// whole-mesh node accumulator) rides on top of every live field set.
void reserve(ScratchArena& a, const Exchange& x, std::size_t fs,
             int nfields) {
  const std::size_t need =
      static_cast<std::size_t>(nfields) * static_cast<std::size_t>(x.nelem()) *
          fs +
      x.dss_scratch(static_cast<int>(fs / kNpp));
  const std::size_t pneed =
      static_cast<std::size_t>(nfields) * static_cast<std::size_t>(x.nelem());
  if (a.capacity() < need || a.ptr_capacity() < pneed) {
    a.require(need, pneed);
  }
}

}  // namespace

void laplacian_update(const Exchange& x, int nlev,
                      std::span<double* const> field, double coef) {
  const std::size_t fs = static_cast<std::size_t>(nlev) * kNpp;
  ScratchArena& arena = ScratchArena::thread_local_arena();
  reserve(arena, x, fs, 1);
  ScratchArena::Frame frame(arena);
  ArenaFields lap(arena, x.nelem(), fs);
  laplacian_field(x, nlev, field, lap.ptrs);
  axpy_fields(x.nelem(), fs, coef, lap.ptrs, field);
  x.dss(field, nlev);
}

void biharmonic_scalar(const Exchange& x, int nlev,
                       std::span<double* const> field,
                       std::span<double* const> out) {
  const std::size_t fs = static_cast<std::size_t>(nlev) * kNpp;
  ScratchArena& arena = ScratchArena::thread_local_arena();
  reserve(arena, x, fs, 1);
  ScratchArena::Frame frame(arena);
  ArenaFields lap1(arena, x.nelem(), fs);
  laplacian_field(x, nlev, field, lap1.ptrs);
  x.dss(lap1.ptrs, nlev);
  laplacian_field(x, nlev, lap1.ptrs, out);
  x.dss(out, nlev);
}

void hypervis_dp1(const Exchange& x, const Dims& d, State& s, double nu,
                  double dt) {
  const std::size_t fs = d.field_size();
  ScratchArena& arena = ScratchArena::thread_local_arena();
  reserve(arena, x, fs, 4);  // ux/uy/uz + nested laplacian_update
  ScratchArena::Frame frame(arena);
  ArenaFields ux(arena, x.nelem(), fs), uy(arena, x.nelem(), fs),
      uz(arena, x.nelem(), fs);
  wind_to_cart(x, d, s, ux.ptrs, uy.ptrs, uz.ptrs);
  laplacian_update(x, d.nlev, ux.ptrs, nu * dt);
  laplacian_update(x, d.nlev, uy.ptrs, nu * dt);
  laplacian_update(x, d.nlev, uz.ptrs, nu * dt);
  cart_to_wind(x, d, ux.ptrs, uy.ptrs, uz.ptrs, s);
  auto Tp = field_ptrs(s, &ElementState::T);
  laplacian_update(x, d.nlev, Tp, nu * dt);
}

void hypervis_dp2(const Exchange& x, const Dims& d, State& s, double nu,
                  double dt) {
  const std::size_t fs = d.field_size();
  ScratchArena& arena = ScratchArena::thread_local_arena();
  reserve(arena, x, fs, 5);  // ux/uy/uz/bi + nested biharmonic
  ScratchArena::Frame frame(arena);
  ArenaFields ux(arena, x.nelem(), fs), uy(arena, x.nelem(), fs),
      uz(arena, x.nelem(), fs);
  wind_to_cart(x, d, s, ux.ptrs, uy.ptrs, uz.ptrs);
  ArenaFields bi(arena, x.nelem(), fs);
  for (std::span<double* const> comp : {ux.ptrs, uy.ptrs, uz.ptrs}) {
    biharmonic_scalar(x, d.nlev, comp, bi.ptrs);
    axpy_fields(x.nelem(), fs, -nu * dt, bi.ptrs, comp);
  }
  cart_to_wind(x, d, ux.ptrs, uy.ptrs, uz.ptrs, s);

  auto Tp = field_ptrs(s, &ElementState::T);
  biharmonic_scalar(x, d.nlev, Tp, bi.ptrs);
  axpy_fields(x.nelem(), fs, -nu * dt, bi.ptrs, Tp);
  x.dss(Tp, d.nlev);
}

void biharmonic_dp3d(const Exchange& x, const Dims& d, State& s, double nu,
                     double dt) {
  const std::size_t fs = d.field_size();
  ScratchArena& arena = ScratchArena::thread_local_arena();
  reserve(arena, x, fs, 2);  // bi + nested biharmonic
  ScratchArena::Frame frame(arena);
  ArenaFields bi(arena, x.nelem(), fs);
  auto dpp = field_ptrs(s, &ElementState::dp);
  biharmonic_scalar(x, d.nlev, dpp, bi.ptrs);
  axpy_fields(x.nelem(), fs, -nu * dt, bi.ptrs, dpp);
  x.dss(dpp, d.nlev);
}

}  // namespace homme
