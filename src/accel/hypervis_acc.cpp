#include "accel/hypervis_acc.hpp"

#include <span>

#include "accel/pipeline.hpp"
#include "homme/ops.hpp"
#include "homme/state.hpp"
#include "sw/task.hpp"

namespace accel {

using homme::fidx;

namespace {

/// The metric tiles the weak Laplacian reads (jac, ginv11/12/22): the
/// leading packed tiles kJac..kGinv22.
constexpr int kLaplaceTiles = kGinv22 + 1;

/// homme::laplace_sphere_wk of one level tile, the operator the model's
/// hyperviscosity applies, charged as its reference derivatives, its flux
/// J g^ab ds/dxi_b (8 flops a point) and its weak divergence (two 4-term
/// sums of products a point, then the negation, the mass product and the
/// divide).
void laplace_tile(const homme::MetricView& g, const double* s, double* lap,
                  sw::Cpe& cpe, bool vec) {
  homme::laplace_sphere_wk(g, s, lap);
  charge(cpe, vec, kDerivFlops);
  charge(cpe, vec, kNpp * 8);
  charge(cpe, vec, kNpp * (4 * kNp + 3));
}

/// Apply the kernel's operator to one level tile in place, scaled by
/// nu * dt = kPortNuDt.
void hv_tile(HvKernel which, const homme::MetricView& g, double* field,
             sw::Cpe& cpe, bool vec) {
  double lap[kNpp];
  laplace_tile(g, field, lap, cpe, vec);
  if (which == HvKernel::kDp1) {
    for (int k = 0; k < kNpp; ++k) field[k] += kPortNuDt * lap[k];
    charge(cpe, vec, kNpp * 2);
    return;
  }
  double lap2[kNpp];
  laplace_tile(g, lap, lap2, cpe, vec);
  for (int k = 0; k < kNpp; ++k) field[k] -= kPortNuDt * lap2[k];
  charge(cpe, vec, kNpp * 2);
}

/// The fields a kernel updates.
std::span<const FieldId> hv_fields(HvKernel which) {
  static constexpr FieldId kDp3d[] = {FieldId::kDp};
  static constexpr FieldId kWindAndT[] = {FieldId::kU1, FieldId::kU2,
                                          FieldId::kT};
  if (which == HvKernel::kBiharmDp3d) return kDp3d;
  return kWindAndT;
}

}  // namespace

sw::KernelStats hypervis_openacc(sw::CoreGroup& cg, const homme::Dims& d,
                                 homme::State& s, const PackedGeometry& g,
                                 HvKernel which) {
  const StateBlocks b(d, s);
  const std::span<const FieldId> fields = hv_fields(which);
  const int nlev = d.nlev;
  const int iters = b.nelem() * nlev;
  auto kernel = [&](sw::Cpe& cpe) -> sw::Task {
    for (const FieldId f : fields) {
      // One parallel region per field; collapse(e, lev) iterations.
      for (int it = cpe.id(); it < iters; it += sw::kCpesPerGroup) {
        const int e = it / nlev;
        const int lev = it % nlev;
        sw::LdmFrame frame(cpe.ldm());
        // The directive port re-stages the 4 metric tiles it references
        // for every single level iteration.
        auto geom = cpe.ldm().alloc<double>(kLaplaceTiles * kNpp);
        cpe.get(geom.subspan(0, kNpp), g.geom_of(e) + kJac * kNpp);
        cpe.get(geom.subspan(kNpp, kNpp), g.geom_of(e) + kGinv11 * kNpp);
        cpe.get(geom.subspan(2 * kNpp, kNpp), g.geom_of(e) + kGinv12 * kNpp);
        cpe.get(geom.subspan(3 * kNpp, kNpp), g.geom_of(e) + kGinv22 * kNpp);
        auto tile = cpe.ldm().alloc<double>(kNpp);
        const std::size_t off = fidx(lev, 0);
        cpe.get(tile, b.from(f, e) + off);
        hv_tile(which, homme::MetricView(geom.data(), kLaplaceTiles),
                tile.data(), cpe, /*vectorized=*/false);
        cpe.put(b.to(f, e) + off, std::span<const double>(tile));
        co_await cpe.yield();
      }
    }
  };
  return cg.run(kernel, sw::kCpesPerGroup,
                static_cast<double>(fields.size()) * sw::kSpawnCycles);
}

std::string_view HypervisKernel::name() const {
  switch (which_) {
    case HvKernel::kDp1:
      return "hypervis_dp1";
    case HvKernel::kDp2:
      return "hypervis_dp2";
    case HvKernel::kBiharmDp3d:
      return "biharmonic_dp3d";
  }
  return "hypervis";
}

void HypervisKernel::bind(Workset& ws) const {
  ws.items(b_.nelem(), b_.dims().nlev);
  ws.dvv = g_.dvv.data();
  const std::size_t geom = static_cast<std::size_t>(kGeomDoubles);
  // Every field stays resident across a chain.
  ws.bind({FieldId::kGeom, const_cast<double*>(g_.geom.data()), geom, geom,
           1, 0, false, true});
  for (const FieldId id : hv_fields(which_)) {
    ws.bind(b_.binding(id, /*writable=*/true, /*keep=*/true));
  }
}

std::size_t HypervisKernel::transient_bytes(const Workset& ws,
                                            const KeepSet& keep) const {
  std::size_t bytes = 128;  // slop for lease alignment
  bool field_missing = false;
  for (FieldId f : hv_fields(which_)) {
    if (!keep.has(f)) field_missing = true;
  }
  if (field_missing) {
    bytes += ws.at(hv_fields(which_).front()).extent * sizeof(double) + 32;
  }
  if (!keep.has(FieldId::kGeom)) {
    bytes += kLaplaceTiles * kNpp * sizeof(double) + 32;
  }
  return bytes;
}

void HypervisKernel::element(sw::Cpe& cpe, ElemCtx& ctx) const {
  // The Laplacian's metric tiles lead the packed geometry, so the prefix
  // lease is its whole view; g11/g12/g22 stay outside it, and null.
  FieldLease geom = ctx.lease(FieldId::kGeom, 0, 0, kLaplaceTiles * kNpp,
                              Access::kRead);
  const homme::MetricView g(geom.data(), kLaplaceTiles);
  const homme::Dims& d = b_.dims();
  for (FieldId f : hv_fields(which_)) {
    FieldLease fld = ctx.lease(f, 0, 0, d.field_size(), Access::kReadWrite);
    for (int lev = 0; lev < d.nlev; ++lev) {
      hv_tile(which_, g, fld.data() + fidx(lev, 0), cpe, /*vectorized=*/true);
    }
  }
}

sw::KernelStats hypervis_athread(sw::CoreGroup& cg, const homme::Dims& d,
                                 homme::State& s, const PackedGeometry& g,
                                 HvKernel which) {
  const StateBlocks b(d, s);
  HypervisKernel k(b, g, which);
  KernelPipeline pipe({&k});
  return pipe.run(cg);
}

}  // namespace accel
