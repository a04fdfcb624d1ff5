#include "homme/dss.hpp"

#include <algorithm>

#include "homme/scratch.hpp"
#include "homme/state.hpp"
#include "homme/vpack.hpp"

namespace homme {

using mesh::kNpp;

namespace {

constexpr int kW = vpack::width;

/// The body on levels [0, nlev) of a level-major block f, into
/// accumulator rows of \p stride doubles; acc points at the block's first
/// level within a row. Whole blocks of kW levels go through the transpose,
/// the last nlev % kW levels run the same operations one level at a time.
void accumulate_levels(const int* ids, const double* mass, const double* f,
                       int nlev, std::size_t stride, double* acc) {
  int l0 = 0;
  for (; l0 + kW <= nlev; l0 += kW) {
    for (int k0 = 0; k0 < kNpp; k0 += kW) {
      const vpack m = vpack::load(mass + k0);
      vpack b[kW];
      for (int r = 0; r < kW; ++r) b[r] = m * vpack::load(f + fidx(l0 + r, k0));
      vpack::transpose(b);  // b[c]: levels l0.. of point k0 + c
      for (int c = 0; c < kW; ++c) {
        double* a = acc + static_cast<std::size_t>(ids[k0 + c]) * stride +
                    static_cast<std::size_t>(l0);
        (vpack::load(a) + b[c]).store(a);
      }
    }
  }
  for (; l0 < nlev; ++l0) {
    for (int k = 0; k < kNpp; ++k) {
      acc[static_cast<std::size_t>(ids[k]) * stride +
          static_cast<std::size_t>(l0)] += mass[k] * f[fidx(l0, k)];
    }
  }
}

/// The mirror of accumulate_levels: f[fidx(lev, k)] = acc(ids[k], lev) *
/// rmass[k] on levels [0, nlev).
void scatter_levels(const int* ids, const double* rmass, const double* acc,
                    int nlev, std::size_t stride, double* f) {
  int l0 = 0;
  for (; l0 + kW <= nlev; l0 += kW) {
    for (int k0 = 0; k0 < kNpp; k0 += kW) {
      vpack b[kW];
      for (int c = 0; c < kW; ++c) {
        b[c] = vpack::load(acc + static_cast<std::size_t>(ids[k0 + c]) *
                                     stride +
                           static_cast<std::size_t>(l0));
      }
      vpack::transpose(b);  // b[r]: points k0.. of level l0 + r
      const vpack rm = vpack::load(rmass + k0);
      for (int r = 0; r < kW; ++r) (b[r] * rm).store(f + fidx(l0 + r, k0));
    }
  }
  for (; l0 < nlev; ++l0) {
    for (int k = 0; k < kNpp; ++k) {
      f[fidx(l0, k)] = acc[static_cast<std::size_t>(ids[k]) * stride +
                           static_cast<std::size_t>(l0)] *
                       rmass[k];
    }
  }
}

}  // namespace

void dss_accumulate(const int* ids, const double* mass, const double* f,
                    int nlev, double* acc) {
  accumulate_levels(ids, mass, f, nlev, static_cast<std::size_t>(nlev), acc);
}

void dss_scatter(const int* ids, const double* rmass, const double* acc,
                 int nlev, double* f) {
  scatter_levels(ids, rmass, acc, nlev, static_cast<std::size_t>(nlev), f);
}

void dss_accumulate_vector(const FrameView& fr, const int* ids,
                           const double* mass, const double* u1,
                           const double* u2, int nlev, double* const* acc) {
  const std::size_t stride = static_cast<std::size_t>(nlev);
  double t[3][kW * kNpp];  // Cartesian tiles of one block of levels
  for (int l0 = 0; l0 < nlev; l0 += kW) {
    const int n = std::min(kW, nlev - l0);
    for (int r = 0; r < n; ++r) {
      contra_to_cart(fr, u1 + fidx(l0 + r, 0), u2 + fidx(l0 + r, 0),
                     t[0] + r * kNpp, t[1] + r * kNpp, t[2] + r * kNpp);
    }
    for (int c = 0; c < 3; ++c) {
      accumulate_levels(ids, mass, t[c], n, stride,
                        acc[c] + static_cast<std::size_t>(l0));
    }
  }
}

void dss_scatter_vector(const FrameView& fr, const int* ids,
                        const double* rmass, const double* const* acc,
                        int nlev, double* u1, double* u2) {
  const std::size_t stride = static_cast<std::size_t>(nlev);
  double t[3][kW * kNpp];
  for (int l0 = 0; l0 < nlev; l0 += kW) {
    const int n = std::min(kW, nlev - l0);
    for (int c = 0; c < 3; ++c) {
      scatter_levels(ids, rmass, acc[c] + static_cast<std::size_t>(l0), n,
                     stride, t[c]);
    }
    for (int r = 0; r < n; ++r) {
      cart_to_contra(fr, t[0] + r * kNpp, t[1] + r * kNpp, t[2] + r * kNpp,
                     u1 + fidx(l0 + r, 0), u2 + fidx(l0 + r, 0));
    }
  }
}

void dss_levels(const mesh::CubedSphere& m,
                std::span<double* const> elem_fields, int nlev) {
  const std::size_t acc_n =
      static_cast<std::size_t>(m.nnodes()) * static_cast<std::size_t>(nlev);
  ScratchArena& arena = ScratchArena::thread_local_arena();
  if (arena.capacity() < acc_n) arena.require(acc_n);
  ScratchArena::Frame frame(arena);
  double* acc = arena.alloc_zero(acc_n).data();
  const int nelem = m.nelem();
  for (int e = 0; e < nelem; ++e) {
    dss_accumulate(m.nodes(e).data(), m.geom(e).mass.data(),
                   elem_fields[static_cast<std::size_t>(e)], nlev, acc);
  }
  for (int e = 0; e < nelem; ++e) {
    dss_scatter(m.nodes(e).data(), m.geom(e).rmass.data(), acc, nlev,
                elem_fields[static_cast<std::size_t>(e)]);
  }
}

void dss_vector_levels(const mesh::CubedSphere& m,
                       std::span<double* const> u1,
                       std::span<double* const> u2, int nlev) {
  const std::size_t acc_n =
      static_cast<std::size_t>(m.nnodes()) * static_cast<std::size_t>(nlev);
  ScratchArena& arena = ScratchArena::thread_local_arena();
  if (arena.capacity() < 3 * acc_n) arena.require(3 * acc_n);
  ScratchArena::Frame frame(arena);
  double* const flat = arena.alloc_zero(3 * acc_n).data();
  double* const acc[3] = {flat, flat + acc_n, flat + 2 * acc_n};
  const int nelem = m.nelem();
  for (int e = 0; e < nelem; ++e) {
    const std::size_t se = static_cast<std::size_t>(e);
    const auto& g = m.geom(e);
    dss_accumulate_vector(g, m.nodes(e).data(), g.mass.data(), u1[se],
                          u2[se], nlev, acc);
  }
  for (int e = 0; e < nelem; ++e) {
    const std::size_t se = static_cast<std::size_t>(e);
    const auto& g = m.geom(e);
    dss_scatter_vector(g, m.nodes(e).data(), g.rmass.data(), acc, nlev,
                       u1[se], u2[se]);
  }
}

}  // namespace homme
