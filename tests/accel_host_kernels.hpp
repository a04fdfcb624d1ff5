#pragma once

// The host kernels the accel ports compute, applied to the unpacked
// workset of a synthetic pack: homme's own bodies and operators, with
// element e's geometry from the donor mesh (m.geom(e % m.nelem()), as
// PackedElems::synthetic packs it). The port tests compare against these
// bit for bit.

#include <vector>

#include "accel/hypervis_acc.hpp"
#include "accel/packed.hpp"
#include "homme/euler.hpp"
#include "homme/ops.hpp"
#include "homme/rhs.hpp"
#include "mesh/cubed_sphere.hpp"

namespace accel_host {

inline homme::State unpack(const accel::PackedElems& p,
                           const homme::Dims& d) {
  homme::State s(static_cast<std::size_t>(p.nelem), homme::ElementState(d));
  p.to_state(s, 0);
  return s;
}

inline homme::Dims dims_of(const accel::PackedElems& p) {
  homme::Dims d;
  d.nlev = p.nlev;
  d.qsize = p.qsize;
  return d;
}

/// homme::element_rhs (dry) plus x += dt * tend, as the rhs ports update.
inline accel::PackedElems rhs(const mesh::CubedSphere& m,
                              const accel::PackedElems& base, double dt) {
  const homme::Dims d = dims_of(base);
  const homme::State s = unpack(base, d);
  accel::PackedElems out = base;
  const std::size_t fs = base.field_size();
  std::vector<double> t(4 * fs);
  const homme::TendView tend{t.data(), t.data() + fs, t.data() + 2 * fs,
                             t.data() + 3 * fs};
  for (int e = 0; e < base.nelem; ++e) {
    const auto& es = s[static_cast<std::size_t>(e)];
    homme::element_rhs(m.geom(e % m.nelem()), d, es, tend);
    const std::size_t eo = base.elem_offset(e);
    for (std::size_t f = 0; f < fs; ++f) {
      out.u1[eo + f] = es.u1[f] + dt * tend.u1[f];
      out.u2[eo + f] = es.u2[f] + dt * tend.u2[f];
      out.T[eo + f] = es.T[f] + dt * tend.T[f];
      out.dp[eo + f] = es.dp[f] + dt * tend.dp[f];
    }
  }
  return out;
}

/// homme::element_tracer_rhs plus q += dt * r, for every tracer.
inline accel::PackedElems euler(const mesh::CubedSphere& m,
                                const accel::PackedElems& base, double dt) {
  const homme::Dims d = dims_of(base);
  const homme::State s = unpack(base, d);
  accel::PackedElems out = base;
  const std::size_t fs = base.field_size();
  std::vector<double> r(fs);
  for (int e = 0; e < base.nelem; ++e) {
    const auto& es = s[static_cast<std::size_t>(e)];
    for (int q = 0; q < base.qsize; ++q) {
      const auto qdp = es.q(q, d);
      homme::element_tracer_rhs(m.geom(e % m.nelem()), d, es, qdp, r);
      double* o = out.qdp.data() + base.qdp_offset(e, q);
      for (std::size_t f = 0; f < fs; ++f) o[f] = qdp[f] + dt * r[f];
    }
  }
  return out;
}

/// homme::laplace_sphere_wk per level tile: x += nu_dt * lap(x) for dp1,
/// x -= nu_dt * lap(lap(x)) for the two biharmonic rows.
inline accel::PackedElems hypervis(const mesh::CubedSphere& m,
                                   const accel::PackedElems& base,
                                   accel::HvKernel which, double nu_dt) {
  accel::PackedElems out = base;
  std::vector<std::vector<double>*> fields = {&out.u1, &out.u2, &out.T};
  if (which == accel::HvKernel::kBiharmDp3d) fields = {&out.dp};
  for (std::vector<double>* fld : fields) {
    for (int e = 0; e < base.nelem; ++e) {
      const mesh::ElementGeom& g = m.geom(e % m.nelem());
      for (int lev = 0; lev < base.nlev; ++lev) {
        double* x = fld->data() + base.elem_offset(e) + homme::fidx(lev, 0);
        double lap[mesh::kNpp], lap2[mesh::kNpp];
        homme::laplace_sphere_wk(g, x, lap);
        if (which == accel::HvKernel::kDp1) {
          for (int k = 0; k < mesh::kNpp; ++k) x[k] += nu_dt * lap[k];
          continue;
        }
        homme::laplace_sphere_wk(g, lap, lap2);
        for (int k = 0; k < mesh::kNpp; ++k) x[k] -= nu_dt * lap2[k];
      }
    }
  }
  return out;
}

}  // namespace accel_host
