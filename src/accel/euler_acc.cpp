#include "accel/euler_acc.hpp"

#include <algorithm>
#include <cmath>

#include "accel/pipeline.hpp"
#include "homme/euler.hpp"
#include "homme/state.hpp"
#include "sw/footprint.hpp"
#include "sw/task.hpp"

namespace accel {

using homme::fidx;

namespace {

/// One (element, tracer, level) tile of every variant: homme's tracer
/// body r = -div(u qdp), then qdp += kPortDt * r. The divergence reads
/// only the view's jac. All pointers are level-tile pointers (16 doubles).
void euler_tile(const homme::MetricView& g, const double* u1,
                const double* u2, double* qdp, sw::Cpe& cpe,
                bool vectorized) {
  double r[kNpp];
  homme::tracer_rhs_level(g, u1, u2, qdp, r);
  charge(cpe, vectorized, kNpp * 2);  // the flux u qdp
  charge(cpe, vectorized, kDivergenceFlops);
  for (int k = 0; k < kNpp; ++k) qdp[k] += kPortDt * r[k];
  charge(cpe, vectorized, kNpp * 2);
}

}  // namespace

EulerDerived EulerDerived::make(const homme::Dims& d, int nelem,
                                int shared_extra) {
  EulerDerived dv;
  dv.shared_extra = shared_extra;
  const std::size_t total = static_cast<std::size_t>(nelem) * d.field_size();
  dv.extra.assign(total * static_cast<std::size_t>(shared_extra), 1.0);
  return dv;
}

sw::KernelStats euler_openacc(sw::CoreGroup& cg, const homme::Dims& d,
                              homme::State& s, const PackedGeometry& g,
                              const EulerDerived& dv) {
  const StateBlocks b(d, s);
  const int nlev = d.nlev;
  const int qsize = d.qsize;
  const int iters = b.nelem() * qsize;
  const int nshared = 3 + dv.shared_extra;  // u1, u2, dp + dummies
  // Level chunk that fits the shared slices + qdp slice + jac in LDM —
  // what the paper's footprint-analysis tool decided per loop nest.
  const int chunk =
      sw::plan_level_chunks(nshared + 1, nlev, kNpp * sizeof(double))
          .levels_per_chunk;

  auto kernel = [&, chunk](sw::Cpe& cpe) -> sw::Task {
    for (int it = cpe.id(); it < iters; it += sw::kCpesPerGroup) {
      const int e = it / qsize;
      const int q = it % qsize;
      sw::LdmFrame frame(cpe.ldm());
      auto jac = cpe.ldm().alloc<double>(kNpp);
      cpe.get(jac, g.geom_of(e) + kJac * kNpp);
      const homme::MetricView mv(jac.data(), 1);
      for (int lev0 = 0; lev0 < nlev; lev0 += chunk) {
        const int levs = std::min(chunk, nlev - lev0);
        const std::size_t n =
            static_cast<std::size_t>(levs) * kNpp;
        sw::LdmFrame inner(cpe.ldm());
        // The collapse(2) constraint: every (ie, q) iteration re-reads
        // ALL shared arrays for its level chunk.
        auto u1 = cpe.ldm().alloc<double>(n);
        auto u2 = cpe.ldm().alloc<double>(n);
        auto dp = cpe.ldm().alloc<double>(n);
        const std::size_t off = fidx(lev0, 0);
        cpe.get(u1, b.from(FieldId::kU1, e) + off);
        cpe.get(u2, b.from(FieldId::kU2, e) + off);
        cpe.get(dp, b.from(FieldId::kDp, e) + off);
        for (int x = 0; x < dv.shared_extra; ++x) {
          auto dummy = cpe.ldm().alloc<double>(n);
          cpe.get(dummy, dv.extra.data() +
                             static_cast<std::size_t>(x * b.nelem() + e) *
                                 d.field_size() +
                             off);
        }
        auto qdp = cpe.ldm().alloc<double>(n);
        const std::size_t qoff =
            static_cast<std::size_t>(q) * d.field_size() + off;
        cpe.get(qdp, b.from(FieldId::kQdp, e) + qoff);
        for (int l = 0; l < levs; ++l) {
          const std::size_t t = static_cast<std::size_t>(l) * kNpp;
          euler_tile(mv, u1.data() + t, u2.data() + t, qdp.data() + t, cpe,
                     /*vectorized=*/false);
        }
        cpe.put(b.to(FieldId::kQdp, e) + qoff, std::span<const double>(qdp));
      }
      co_await cpe.yield();
    }
  };
  return cg.run(kernel, sw::kCpesPerGroup, sw::kSpawnCycles);
}

void EulerKernel::bind(Workset& ws) const {
  const homme::Dims& d = b_.dims();
  ws.items(b_.nelem(), d.nlev);
  ws.dvv = g_.dvv.data();
  const std::size_t fs = d.field_size();
  const std::size_t geom = static_cast<std::size_t>(kGeomDoubles);
  // Geometry and the wind stay resident across a chain; the shared
  // arrays and the tracers stream.
  ws.bind({FieldId::kGeom, const_cast<double*>(g_.geom.data()), geom, geom,
           1, 0, false, true});
  for (const FieldId id : {FieldId::kDp, FieldId::kU1, FieldId::kU2}) {
    ws.bind(b_.binding(id, /*writable=*/false, /*keep=*/true));
  }
  if (dv_.shared_extra > 0) {
    ws.bind({FieldId::kExtra, const_cast<double*>(dv_.extra.data()), fs, fs,
             dv_.shared_extra, static_cast<std::size_t>(b_.nelem()) * fs,
             false});
  }
  if (d.qsize > 0) {
    ws.bind(b_.binding(FieldId::kQdp, /*writable=*/true, /*keep=*/false));
  }
}

std::size_t EulerKernel::transient_bytes(const Workset&,
                                         const KeepSet& keep) const {
  // Worst case per level chunk: four transient slices live at once
  // (u1, u2, dp, extra-or-qdp) at the minimum chunk of one level,
  // plus the jac tile when geometry is not resident, plus alignment slop.
  std::size_t bytes = 4u * kNpp * sizeof(double) + 256;
  if (!keep.has(FieldId::kGeom)) bytes += kNpp * sizeof(double) + 32;
  return bytes;
}

void EulerKernel::element(sw::Cpe& cpe, ElemCtx& ctx) const {
  const int nlev = b_.dims().nlev;
  FieldLease jac = ctx.lease(FieldId::kGeom, 0,
                             static_cast<std::size_t>(kJac) * kNpp, kNpp,
                             Access::kRead);
  const homme::MetricView g(jac.data(), 1);
  // Size the level chunk to what is actually free after the keep set,
  // assuming all four streamed slices are transient (conservative when
  // dp is resident). Byte totals are invariant to the chunk size.
  const std::size_t free = cpe.ldm().free_bytes();
  const std::size_t budget = free > 1024 ? free - 1024 : 0;
  const std::size_t per_level = 4u * kNpp * sizeof(double);
  const int chunk = std::clamp(static_cast<int>(budget / per_level), 1, nlev);
  for (int s = 0; s < nlev; s += chunk) {
    const int levs = std::min(chunk, nlev - s);
    const std::size_t off = fidx(s, 0);
    const std::size_t n = static_cast<std::size_t>(levs) * kNpp;
    FieldLease u1 = ctx.lease(FieldId::kU1, 0, off, n, Access::kRead);
    FieldLease u2 = ctx.lease(FieldId::kU2, 0, off, n, Access::kRead);
    FieldLease dp = ctx.lease(FieldId::kDp, 0, off, n, Access::kRead);
    for (int x = 0; x < dv_.shared_extra; ++x) {
      // dp and CAM's extra shared arrays are transferred but not combined
      // into the arithmetic (see EulerDerived).
      FieldLease dummy = ctx.lease(FieldId::kExtra, x, off, n, Access::kRead);
    }
    for (int q = 0; q < b_.dims().qsize; ++q) {
      FieldLease qdp = ctx.lease(FieldId::kQdp, q, off, n, Access::kReadWrite);
      for (int l = 0; l < levs; ++l) {
        const std::size_t t = static_cast<std::size_t>(l) * kNpp;
        euler_tile(g, u1.data() + t, u2.data() + t, qdp.data() + t, cpe,
                   /*vectorized=*/true);
      }
    }
  }
}

sw::KernelStats euler_athread(sw::CoreGroup& cg, const homme::Dims& d,
                              homme::State& s, const PackedGeometry& g,
                              const EulerDerived& dv) {
  const StateBlocks b(d, s);
  EulerKernel k(b, g, dv);
  KernelPipeline pipe({&k});
  return pipe.run(cg);
}

}  // namespace accel
