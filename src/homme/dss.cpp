#include "homme/dss.hpp"

#include <algorithm>

#include "homme/scratch.hpp"
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
                           const double* u2, int nlev, double* acc) {
  const std::size_t stride = 3 * static_cast<std::size_t>(nlev);
  double t[3][kW * kNpp];  // Cartesian tiles of one block of levels
  for (int l0 = 0; l0 < nlev; l0 += kW) {
    const int n = std::min(kW, nlev - l0);
    for (int r = 0; r < n; ++r) {
      contra_to_cart(fr, u1 + fidx(l0 + r, 0), u2 + fidx(l0 + r, 0),
                     t[0] + r * kNpp, t[1] + r * kNpp, t[2] + r * kNpp);
    }
    for (int c = 0; c < 3; ++c) {
      accumulate_levels(ids, mass, t[c], n, stride,
                        acc + static_cast<std::size_t>(c * nlev + l0));
    }
  }
}

void dss_scatter_vector(const FrameView& fr, const int* ids,
                        const double* rmass, const double* acc, int nlev,
                        double* u1, double* u2) {
  const std::size_t stride = 3 * static_cast<std::size_t>(nlev);
  double t[3][kW * kNpp];
  for (int l0 = 0; l0 < nlev; l0 += kW) {
    const int n = std::min(kW, nlev - l0);
    for (int c = 0; c < 3; ++c) {
      scatter_levels(ids, rmass, acc + static_cast<std::size_t>(c * nlev + l0),
                     n, stride, t[c]);
    }
    for (int r = 0; r < n; ++r) {
      cart_to_contra(fr, t[0] + r * kNpp, t[1] + r * kNpp, t[2] + r * kNpp,
                     u1 + fidx(l0 + r, 0), u2 + fidx(l0 + r, 0));
    }
  }
}

std::span<double*> arena_ptrs(ScratchArena& a, State& s,
                              Chunk ElementState::*member,
                              std::size_t offset) {
  const std::span<double*> ptrs = a.alloc_ptrs(s.size());
  for (std::size_t e = 0; e < s.size(); ++e) {
    ptrs[e] = (s[e].*member).mutable_span().data() + offset;
  }
  return ptrs;
}

}  // namespace homme
