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

PackedGeometry PackedGeometry::pack(const mesh::CubedSphere& m, int nelem) {
  PackedGeometry g;
  const auto& b = mesh::gll();
  g.dvv.resize(kNpp);
  for (int i = 0; i < mesh::kNp; ++i) {
    for (int j = 0; j < mesh::kNp; ++j) {
      g.dvv[static_cast<std::size_t>(i * mesh::kNp + j)] =
          b.deriv[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    }
  }
  g.geom.resize(static_cast<std::size_t>(nelem) * kGeomDoubles);
  for (int e = 0; e < nelem; ++e) {
    pack_geometry(m.geom(e % m.nelem()),
                  g.geom.data() + static_cast<std::size_t>(e) * kGeomDoubles);
  }
  return g;
}

homme::State synthetic_state(const homme::Dims& d, int nelem) {
  homme::State s(static_cast<std::size_t>(nelem), homme::ElementState(d));
  for (int e = 0; e < nelem; ++e) {
    homme::ElementState& es = s[static_cast<std::size_t>(e)];
    const auto u1 = es.u1.mutable_span();
    const auto u2 = es.u2.mutable_span();
    const auto T = es.T.mutable_span();
    const auto dp = es.dp.mutable_span();
    const auto qdp = es.qdp.mutable_span();
    for (int lev = 0; lev < d.nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        const std::size_t f = homme::fidx(lev, k);
        const double x = 0.1 * e + 0.3 * lev + 0.05 * k;
        u1[f] = 3e-6 * std::sin(x);
        u2[f] = 2e-6 * std::cos(1.3 * x);
        T[f] = 280.0 + 10.0 * std::sin(0.7 * x);
        dp[f] = (homme::kP0 - homme::kPtop) / d.nlev *
                (1.0 + 0.1 * std::sin(2.1 * x));
        for (int q = 0; q < d.qsize; ++q) {
          qdp[static_cast<std::size_t>(q) * d.field_size() + f] =
              (0.5 + 0.4 * std::sin(x + q)) * dp[f];
        }
      }
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Compulsory-traffic estimates (bytes) for the roofline pricing of the
// cache-based platforms. One "pass" = read or write of a [lev][16] field.
// ---------------------------------------------------------------------------

namespace {
std::uint64_t field_bytes(const homme::Dims& d, int nelem) {
  return static_cast<std::uint64_t>(nelem) * d.field_size() * sizeof(double);
}
}  // namespace

sw::WorkEstimate euler_step_work(const homme::Dims& d, int nelem) {
  sw::WorkEstimate w;
  // Reads u1, u2, dp once (cached across the q loop on cache platforms),
  // reads + writes each tracer once; geometry fits in cache.
  w.bytes = field_bytes(d, nelem) * 3 +
            static_cast<std::uint64_t>(2 * d.qsize) * field_bytes(d, nelem);
  return w;
}

sw::WorkEstimate rhs_work(const homme::Dims& d, int nelem) {
  sw::WorkEstimate w;
  // Reads u1,u2,T,dp; writes tendencies for u1,u2,T,dp; p/phi scratch.
  w.bytes = field_bytes(d, nelem) * 10;
  return w;
}

sw::WorkEstimate remap_work(const homme::Dims& d, int nelem) {
  sw::WorkEstimate w;
  // Reads + writes u1,u2,T and each tracer; dp read + written.
  w.bytes = field_bytes(d, nelem) *
            (8 + 2 * static_cast<std::uint64_t>(d.qsize));
  return w;
}

sw::WorkEstimate laplace_work(const homme::Dims& d, int nelem,
                              int applications) {
  sw::WorkEstimate w;
  // Per application: read field, write result (T + 2 wind components ~ 3
  // fields for the momentum/temperature operators).
  w.bytes = field_bytes(d, nelem) * 2 *
            static_cast<std::uint64_t>(applications);
  return w;
}

}  // namespace accel
