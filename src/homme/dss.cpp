#include "homme/dss.hpp"

#include "homme/ops.hpp"
#include "homme/scratch.hpp"
#include "homme/state.hpp"

namespace homme {

using mesh::kNpp;

void dss_levels(const mesh::CubedSphere& m,
                std::span<double* const> elem_fields, int nlev) {
  const std::size_t acc_n =
      static_cast<std::size_t>(m.nnodes()) * static_cast<std::size_t>(nlev);
  ScratchArena& arena = ScratchArena::thread_local_arena();
  if (arena.capacity() < acc_n) arena.require(acc_n);
  ScratchArena::Frame frame(arena);
  std::span<double> acc = arena.alloc_zero(acc_n);
  const int nelem = m.nelem();
  for (int e = 0; e < nelem; ++e) {
    const auto& ids = m.nodes(e);
    const auto& g = m.geom(e);
    const double* f = elem_fields[static_cast<std::size_t>(e)];
    for (int lev = 0; lev < nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        acc[static_cast<std::size_t>(ids[static_cast<std::size_t>(k)]) *
                static_cast<std::size_t>(nlev) +
            static_cast<std::size_t>(lev)] +=
            g.mass[static_cast<std::size_t>(k)] * f[fidx(lev, k)];
      }
    }
  }
  for (int e = 0; e < nelem; ++e) {
    const auto& ids = m.nodes(e);
    const auto& g = m.geom(e);
    double* f = elem_fields[static_cast<std::size_t>(e)];
    for (int lev = 0; lev < nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        f[fidx(lev, k)] =
            acc[static_cast<std::size_t>(ids[static_cast<std::size_t>(k)]) *
                    static_cast<std::size_t>(nlev) +
                static_cast<std::size_t>(lev)] *
            g.rmass[static_cast<std::size_t>(k)];
      }
    }
  }
}

void dss_vector_levels(const mesh::CubedSphere& m,
                       std::span<double* const> u1,
                       std::span<double* const> u2, int nlev) {
  const int nelem = m.nelem();
  const std::size_t sn = static_cast<std::size_t>(nelem);
  const std::size_t fs = static_cast<std::size_t>(nlev) * kNpp;
  const std::size_t acc_n =
      static_cast<std::size_t>(m.nnodes()) * static_cast<std::size_t>(nlev);

  // Cartesian scratch per element, plus the nested dss_levels node
  // accumulator, all carved from the thread's arena.
  ScratchArena& arena = ScratchArena::thread_local_arena();
  if (arena.capacity() < 3 * sn * fs + acc_n ||
      arena.ptr_capacity() < 3 * sn) {
    arena.require(3 * sn * fs + acc_n, 3 * sn);
  }
  ScratchArena::Frame frame(arena);
  std::span<double> cx = arena.alloc(sn * fs), cy = arena.alloc(sn * fs),
                    cz = arena.alloc(sn * fs);
  std::span<double*> px = arena.alloc_ptrs(sn), py = arena.alloc_ptrs(sn),
                     pz = arena.alloc_ptrs(sn);
  for (std::size_t e = 0; e < sn; ++e) {
    px[e] = cx.data() + e * fs;
    py[e] = cy.data() + e * fs;
    pz[e] = cz.data() + e * fs;
  }
  for (int e = 0; e < nelem; ++e) {
    const std::size_t se = static_cast<std::size_t>(e);
    const FrameView f = m.geom(e);
    for (int lev = 0; lev < nlev; ++lev) {
      contra_to_cart(f, u1[se] + fidx(lev, 0), u2[se] + fidx(lev, 0),
                     px[se] + fidx(lev, 0), py[se] + fidx(lev, 0),
                     pz[se] + fidx(lev, 0));
    }
  }
  dss_levels(m, px, nlev);
  dss_levels(m, py, nlev);
  dss_levels(m, pz, nlev);
  for (int e = 0; e < nelem; ++e) {
    const std::size_t se = static_cast<std::size_t>(e);
    const FrameView f = m.geom(e);
    for (int lev = 0; lev < nlev; ++lev) {
      cart_to_contra(f, px[se] + fidx(lev, 0), py[se] + fidx(lev, 0),
                     pz[se] + fidx(lev, 0), u1[se] + fidx(lev, 0),
                     u2[se] + fidx(lev, 0));
    }
  }
}

}  // namespace homme
