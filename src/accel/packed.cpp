#include "accel/packed.hpp"

#include <algorithm>
#include <cmath>

#include "mesh/gll.hpp"

namespace accel {

using mesh::kNpp;

namespace {

void pack_geometry(const mesh::ElementGeom& g, double* out) {
  auto put = [out](int tile, const std::array<double, kNpp>& src) {
    std::copy(src.begin(), src.end(), out + tile * kNpp);
  };
  put(kJac, g.jac);
  put(kGinv11, g.ginv11);
  put(kGinv12, g.ginv12);
  put(kGinv22, g.ginv22);
  put(kG11, g.g11);
  put(kG12, g.g12);
  put(kG22, g.g22);
  for (int d = 0; d < 3; ++d) {
    put(kA1X + d, g.a1[static_cast<std::size_t>(d)]);
    put(kA2X + d, g.a2[static_cast<std::size_t>(d)]);
    put(kB1X + d, g.b1[static_cast<std::size_t>(d)]);
    put(kB2X + d, g.b2[static_cast<std::size_t>(d)]);
    put(kRhatX + d, g.rhat[static_cast<std::size_t>(d)]);
  }
  put(kCor, g.coriolis);
}

}  // namespace

void PackedElems::from_state(const homme::Dims& d, const homme::State& s,
                             int begin, int end) {
  nelem = end - begin;
  nlev = d.nlev;
  qsize = d.qsize;
  const std::size_t fs = field_size();
  const std::size_t qfs = static_cast<std::size_t>(qsize) * fs;
  const std::size_t n = static_cast<std::size_t>(nelem) * fs;
  for (auto* f : {&u1, &u2, &T, &dp}) f->resize(n);
  qdp.resize(static_cast<std::size_t>(nelem) * qfs);
  for (std::size_t i = 0; i < static_cast<std::size_t>(nelem); ++i) {
    const auto& es = s[static_cast<std::size_t>(begin) + i];
    std::copy(es.u1.begin(), es.u1.end(), u1.begin() + i * fs);
    std::copy(es.u2.begin(), es.u2.end(), u2.begin() + i * fs);
    std::copy(es.T.begin(), es.T.end(), T.begin() + i * fs);
    std::copy(es.dp.begin(), es.dp.end(), dp.begin() + i * fs);
    std::copy(es.qdp.begin(), es.qdp.end(), qdp.begin() + i * qfs);
  }
}

void PackedElems::to_state(homme::State& s, int begin) const {
  const std::size_t fs = field_size();
  const std::size_t qfs = static_cast<std::size_t>(qsize) * fs;
  for (std::size_t i = 0; i < static_cast<std::size_t>(nelem); ++i) {
    auto& es = s[static_cast<std::size_t>(begin) + i];
    // COW write-back: mutable_span() un-shares each field before the copy.
    std::copy(u1.begin() + i * fs, u1.begin() + (i + 1) * fs,
              es.u1.mutable_span().begin());
    std::copy(u2.begin() + i * fs, u2.begin() + (i + 1) * fs,
              es.u2.mutable_span().begin());
    std::copy(T.begin() + i * fs, T.begin() + (i + 1) * fs,
              es.T.mutable_span().begin());
    std::copy(dp.begin() + i * fs, dp.begin() + (i + 1) * fs,
              es.dp.mutable_span().begin());
    std::copy(qdp.begin() + i * qfs, qdp.begin() + (i + 1) * qfs,
              es.qdp.mutable_span().begin());
  }
}

PackedElems PackedElems::synthetic(const mesh::CubedSphere& m,
                                   const homme::Dims& d, int nelem) {
  PackedElems p;
  p.nelem = nelem;
  p.nlev = d.nlev;
  p.qsize = d.qsize;
  const auto& b = mesh::gll();
  p.dvv.resize(kNpp);
  for (int i = 0; i < mesh::kNp; ++i) {
    for (int j = 0; j < mesh::kNp; ++j) {
      p.dvv[static_cast<std::size_t>(i * mesh::kNp + j)] =
          b.deriv[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    }
  }
  const std::size_t n = static_cast<std::size_t>(nelem) * p.field_size();
  p.geom.resize(static_cast<std::size_t>(nelem) * kGeomDoubles);
  p.u1.resize(n);
  p.u2.resize(n);
  p.T.resize(n);
  p.dp.resize(n);
  p.qdp.resize(static_cast<std::size_t>(d.qsize) * n);
  p.phis.resize(static_cast<std::size_t>(nelem) * kNpp);
  for (int e = 0; e < nelem; ++e) {
    const int ge = e % m.nelem();
    pack_geometry(m.geom(ge), p.geom.data() +
                                  static_cast<std::size_t>(e) * kGeomDoubles);
    for (int lev = 0; lev < p.nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        const std::size_t f =
            p.elem_offset(e) + homme::fidx(lev, k);
        const double x = 0.1 * e + 0.3 * lev + 0.05 * k;
        p.u1[f] = 3e-6 * std::sin(x);
        p.u2[f] = 2e-6 * std::cos(1.3 * x);
        p.T[f] = 280.0 + 10.0 * std::sin(0.7 * x);
        p.dp[f] = (homme::kP0 - homme::kPtop) / p.nlev *
                  (1.0 + 0.1 * std::sin(2.1 * x));
        for (int q = 0; q < p.qsize; ++q) {
          p.qdp[p.qdp_offset(e, q) + homme::fidx(lev, k)] =
              (0.5 + 0.4 * std::sin(x + q)) * p.dp[f];
        }
      }
    }
    for (int k = 0; k < kNpp; ++k) {
      p.phis[static_cast<std::size_t>(e) * kNpp + k] = 0.0;
    }
  }
  return p;
}

// ---------------------------------------------------------------------------
// Compulsory-traffic estimates (bytes) for the roofline pricing of the
// cache-based platforms. One "pass" = read or write of a [lev][16] field.
// ---------------------------------------------------------------------------

namespace {
std::uint64_t field_bytes(const PackedElems& p) {
  return static_cast<std::uint64_t>(p.nelem) * p.field_size() *
         sizeof(double);
}
}  // namespace

sw::WorkEstimate euler_step_work(const PackedElems& p) {
  sw::WorkEstimate w;
  // Reads u1, u2, dp once (cached across the q loop on cache platforms),
  // reads + writes each tracer once; geometry fits in cache.
  w.bytes = field_bytes(p) * 3 +
            static_cast<std::uint64_t>(2 * p.qsize) * field_bytes(p);
  return w;
}

sw::WorkEstimate rhs_work(const PackedElems& p) {
  sw::WorkEstimate w;
  // Reads u1,u2,T,dp; writes tendencies for u1,u2,T,dp; p/phi scratch.
  w.bytes = field_bytes(p) * 10;
  return w;
}

sw::WorkEstimate remap_work(const PackedElems& p) {
  sw::WorkEstimate w;
  // Reads + writes u1,u2,T and each tracer; dp read + written.
  w.bytes = field_bytes(p) * (8 + 2 * static_cast<std::uint64_t>(p.qsize));
  return w;
}

sw::WorkEstimate laplace_work(const PackedElems& p, int applications) {
  sw::WorkEstimate w;
  // Per application: read field, write result (T + 2 wind components ~ 3
  // fields for the momentum/temperature operators).
  w.bytes = field_bytes(p) * 2 * static_cast<std::uint64_t>(applications);
  return w;
}

}  // namespace accel
