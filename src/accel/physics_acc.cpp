#include "accel/physics_acc.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "accel/pipeline.hpp"
#include "sw/task.hpp"

namespace accel {

namespace {

/// The four schemes of the suite, in driver order.
enum Scheme { kRadiation = 0, kConvection, kCondensation, kSurfacePbl };

/// The schemes \p cfg enables, in driver order.
std::vector<int> enabled_schemes(const phys::PhysicsConfig& cfg) {
  std::vector<int> schemes;
  if (cfg.radiation) schemes.push_back(kRadiation);
  if (cfg.convection) schemes.push_back(kConvection);
  if (cfg.condensation) schemes.push_back(kCondensation);
  if (cfg.surface_pbl) schemes.push_back(kSurfacePbl);
  return schemes;
}

/// Approximate retired flops of one scheme on one column.
std::uint64_t scheme_flops(int scheme, int nlev) {
  const int per_level[] = {45, 18, 24, 36};
  return static_cast<std::uint64_t>(per_level[scheme]) *
         static_cast<std::uint64_t>(nlev);
}

/// The host thread's phys::Column of \p nlev levels, reused for every
/// column, scheme and launch: run_scheme never suspends, so one column is
/// live per host thread at a time.
phys::Column& host_column(int nlev) {
  thread_local phys::Column c(0);
  if (c.nlev != nlev) c = phys::Column(nlev);
  return c;
}

/// Run \p scheme on column \p col of \p p, whose t, q, u, v, dp and p
/// arrays are staged at \p lev[0..5]; t, q, u and v are updated there.
/// The column's ps and surface come straight from the image.
void run_scheme(int scheme, const phys::PackedColumns& p, int col,
                const std::array<double*, 6>& lev,
                const phys::PhysicsConfig& cfg, double dt) {
  phys::Column& c = host_column(p.nlev);
  const std::array arrays{&c.t, &c.q, &c.u, &c.v, &c.dp, &c.p};
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    std::copy(lev[a], lev[a] + p.nlev, arrays[a]->begin());
  }
  c.ps = p.ps[static_cast<std::size_t>(col)];
  c.sfc = p.sfc[static_cast<std::size_t>(col)];
  phys::ColumnDiag diag;
  switch (scheme) {
    case kRadiation:
      phys::gray_radiation(cfg.rad, c, dt, diag);
      break;
    case kConvection:
      phys::dry_adjustment(c);
      break;
    case kCondensation:
      phys::large_scale_condensation(c, dt, diag);
      break;
    case kSurfacePbl:
      phys::surface_and_pbl(cfg.sfc, c, dt, diag);
      break;
  }
  for (std::size_t a = 0; a < 4; ++a) {
    std::copy(arrays[a]->begin(), arrays[a]->end(), lev[a]);
  }
}

}  // namespace

sw::KernelStats physics_openacc(sw::CoreGroup& cg, phys::PackedColumns& p,
                                const phys::PhysicsConfig& cfg, double dt) {
  // One parallel region per scheme: columns are re-staged from main
  // memory for every scheme, and every scheme pays a spawn.
  const std::vector<int> schemes = enabled_schemes(cfg);
  const std::array fields{&p.t, &p.q, &p.u, &p.v, &p.dp, &p.p};
  auto kernel = [&](sw::Cpe& cpe) -> sw::Task {
    for (const int scheme : schemes) {
      for (int col = cpe.id(); col < p.ncols; col += sw::kCpesPerGroup) {
        sw::LdmFrame frame(cpe.ldm());
        const std::size_t n = static_cast<std::size_t>(p.nlev);
        const std::size_t o = p.off(col);
        // Stage the 6 column arrays into LDM (the directive copyin).
        auto buf = cpe.ldm().alloc<double>(6 * n);
        std::array<double*, 6> lev{};
        for (std::size_t a = 0; a < fields.size(); ++a) {
          lev[a] = buf.data() + a * n;
          cpe.get(buf.subspan(a * n, n), fields[a]->data() + o);
        }
        run_scheme(scheme, p, col, lev, cfg, dt);
        cpe.scalar_flops(scheme_flops(scheme, p.nlev));
        // Write the prognostics back (4 arrays).
        for (std::size_t a = 0; a < 4; ++a) {
          cpe.dma_wait(cpe.dma_put(fields[a]->data() + o, lev[a],
                                   n * sizeof(double)));
        }
        co_await cpe.yield();
      }
      co_await cpe.barrier();  // region boundary
    }
  };
  return cg.run(kernel, sw::kCpesPerGroup,
                static_cast<double>(schemes.size()) * sw::kSpawnCycles);
}

std::string_view PhysicsSchemeKernel::name() const {
  switch (scheme_) {
    case kRadiation:
      return "phys_radiation";
    case kConvection:
      return "phys_convection";
    case kCondensation:
      return "phys_condensation";
    default:
      return "phys_surface_pbl";
  }
}

void PhysicsSchemeKernel::bind(Workset& ws) const {
  ws.items(p_.ncols, p_.nlev);
  const std::size_t n = static_cast<std::size_t>(p_.nlev);
  // All six arrays stay resident across the suite; dp and p are inputs.
  ws.bind({FieldId::kColT, p_.t.data(), n, n, 1, 0, true, true});
  ws.bind({FieldId::kColQ, p_.q.data(), n, n, 1, 0, true, true});
  ws.bind({FieldId::kColU, p_.u.data(), n, n, 1, 0, true, true});
  ws.bind({FieldId::kColV, p_.v.data(), n, n, 1, 0, true, true});
  ws.bind({FieldId::kColDp, p_.dp.data(), n, n, 1, 0, false, true});
  ws.bind({FieldId::kColP, p_.p.data(), n, n, 1, 0, false, true});
}

std::size_t PhysicsSchemeKernel::transient_bytes(const Workset&,
                                                 const KeepSet& keep) const {
  // The scheme runs on the host thread's phys::Column; LDM transients are
  // only the leases of bound fields admission left out.
  Workset own;
  bind(own);
  std::size_t bytes = 128;
  for (const FieldBinding& b : own.bindings()) {
    if (!keep.has(b.id)) bytes += b.extent * sizeof(double) + 32;
  }
  return bytes;
}

void PhysicsSchemeKernel::element(sw::Cpe& cpe, ElemCtx& ctx) const {
  const std::size_t n = static_cast<std::size_t>(p_.nlev);
  FieldLease t = ctx.lease(FieldId::kColT, 0, 0, n, Access::kReadWrite);
  FieldLease q = ctx.lease(FieldId::kColQ, 0, 0, n, Access::kReadWrite);
  FieldLease u = ctx.lease(FieldId::kColU, 0, 0, n, Access::kReadWrite);
  FieldLease v = ctx.lease(FieldId::kColV, 0, 0, n, Access::kReadWrite);
  FieldLease dp = ctx.lease(FieldId::kColDp, 0, 0, n, Access::kRead);
  FieldLease pr = ctx.lease(FieldId::kColP, 0, 0, n, Access::kRead);
  run_scheme(scheme_, p_, ctx.item(),
             {t.data(), q.data(), u.data(), v.data(), dp.data(), pr.data()},
             cfg_, dt_);
  cpe.scalar_flops(scheme_flops(scheme_, p_.nlev));
}

sw::KernelStats physics_athread(sw::CoreGroup& cg, phys::PackedColumns& p,
                                const phys::PhysicsConfig& cfg, double dt) {
  // The enabled schemes as one fused pipeline: each column's six arrays
  // are staged once, the later schemes' leases hit the residency ledger,
  // and the four prognostics flush once per column.
  std::vector<PhysicsSchemeKernel> kernels;
  for (const int scheme : enabled_schemes(cfg)) {
    kernels.emplace_back(p, cfg, dt, scheme);
  }
  std::vector<const Kernel*> chain;
  for (const PhysicsSchemeKernel& k : kernels) chain.push_back(&k);
  return KernelPipeline(std::move(chain)).run(cg);
}

}  // namespace accel
