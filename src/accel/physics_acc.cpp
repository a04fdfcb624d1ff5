#include "accel/physics_acc.hpp"

#include <cmath>

#include "accel/pipeline.hpp"
#include "homme/dims.hpp"
#include "sw/task.hpp"

namespace accel {

namespace {

/// The four schemes of the suite, in driver order.
enum Scheme { kRadiation = 0, kConvection, kCondensation, kSurfacePbl };
constexpr int kNumSchemes = 4;

/// Approximate retired flops of one scheme on one column.
std::uint64_t scheme_flops(int scheme, int nlev) {
  const int per_level[kNumSchemes] = {45, 18, 24, 36};
  return static_cast<std::uint64_t>(per_level[scheme]) *
         static_cast<std::uint64_t>(nlev);
}

/// Build a phys::Column from a 6-array staging buffer laid out as
/// [t | q | u | v | dp | p], each of nlev doubles.
phys::Column column_from_buffer(std::span<const double> buf, int nlev,
                                double ps, double sst, double lat) {
  phys::Column c(nlev);
  const std::size_t n = static_cast<std::size_t>(nlev);
  for (std::size_t l = 0; l < n; ++l) {
    c.t[l] = buf[l];
    c.q[l] = buf[n + l];
    c.u[l] = buf[2 * n + l];
    c.v[l] = buf[3 * n + l];
    c.dp[l] = buf[4 * n + l];
    c.p[l] = buf[5 * n + l];
  }
  c.ps = ps;
  c.sfc = phys::surface_at(lat, sst);
  return c;
}

/// Write the prognostics back into the staging buffer.
void column_to_buffer(const phys::Column& c, std::span<double> buf) {
  const std::size_t n = static_cast<std::size_t>(c.nlev);
  for (std::size_t l = 0; l < n; ++l) {
    buf[l] = c.t[l];
    buf[n + l] = c.q[l];
    buf[2 * n + l] = c.u[l];
    buf[3 * n + l] = c.v[l];
  }
}

void run_scheme(int scheme, phys::Column& c, const PhysicsAccConfig& cfg,
                phys::ColumnDiag& diag) {
  switch (scheme) {
    case kRadiation:
      phys::gray_radiation(cfg.rad, c, cfg.dt, diag);
      break;
    case kConvection:
      phys::dry_adjustment(c);
      break;
    case kCondensation:
      phys::large_scale_condensation(c, cfg.dt, diag);
      break;
    case kSurfacePbl:
      phys::surface_and_pbl(cfg.sfc, c, cfg.dt, diag);
      break;
  }
}

}  // namespace

PackedColumns PackedColumns::synthetic(int ncols, int nlev) {
  PackedColumns p;
  p.ncols = ncols;
  p.nlev = nlev;
  const std::size_t n = static_cast<std::size_t>(ncols) * nlev;
  p.t.resize(n);
  p.q.resize(n);
  p.u.resize(n);
  p.v.resize(n);
  p.dp.resize(n);
  p.p.resize(n);
  p.ps.resize(static_cast<std::size_t>(ncols));
  p.sst.resize(static_cast<std::size_t>(ncols));
  p.lat.resize(static_cast<std::size_t>(ncols));
  for (int c = 0; c < ncols; ++c) {
    const double lat = -1.2 + 2.4 * c / std::max(1, ncols - 1);
    p.lat[static_cast<std::size_t>(c)] = lat;
    p.sst[static_cast<std::size_t>(c)] =
        302.0 - 30.0 * std::sin(lat) * std::sin(lat);
    const double ps = homme::kP0 * (1.0 - 0.01 * std::sin(3.0 * lat));
    p.ps[static_cast<std::size_t>(c)] = ps;
    double run = homme::kPtop;
    for (int l = 0; l < nlev; ++l) {
      const std::size_t i = p.off(c) + static_cast<std::size_t>(l);
      p.dp[i] = (ps - homme::kPtop) / nlev;
      p.p[i] = run + 0.5 * p.dp[i];
      run += p.dp[i];
      const double sigma = p.p[i] / ps;
      p.t[i] = (p.sst[static_cast<std::size_t>(c)] - 2.0) *
               std::pow(sigma, 0.19);
      p.q[i] = 0.013 * sigma * sigma * sigma;
      p.u[i] = 8.0 * std::cos(lat) + 0.5 * l;
      p.v[i] = 1.0 * std::sin(2.0 * lat);
    }
  }
  return p;
}

namespace {

/// Assemble the staging layout from main memory (shared by the host
/// reference and the ports, so arithmetic inputs are identical).
void stage_from_main(const PackedColumns& p, int col,
                     std::span<double> buf) {
  const std::size_t n = static_cast<std::size_t>(p.nlev);
  const std::size_t o = p.off(col);
  for (std::size_t l = 0; l < n; ++l) {
    buf[l] = p.t[o + l];
    buf[n + l] = p.q[o + l];
    buf[2 * n + l] = p.u[o + l];
    buf[3 * n + l] = p.v[o + l];
    buf[4 * n + l] = p.dp[o + l];
    buf[5 * n + l] = p.p[o + l];
  }
}

void unstage_to_main(std::span<const double> buf, PackedColumns& p,
                     int col) {
  const std::size_t n = static_cast<std::size_t>(p.nlev);
  const std::size_t o = p.off(col);
  for (std::size_t l = 0; l < n; ++l) {
    p.t[o + l] = buf[l];
    p.q[o + l] = buf[n + l];
    p.u[o + l] = buf[2 * n + l];
    p.v[o + l] = buf[3 * n + l];
  }
}

}  // namespace

void physics_ref(PackedColumns& p, const PhysicsAccConfig& cfg) {
  std::vector<double> buf(6 * static_cast<std::size_t>(p.nlev));
  for (int col = 0; col < p.ncols; ++col) {
    stage_from_main(p, col, buf);
    phys::Column c = column_from_buffer(
        buf, p.nlev, p.ps[static_cast<std::size_t>(col)],
        p.sst[static_cast<std::size_t>(col)],
        p.lat[static_cast<std::size_t>(col)]);
    phys::ColumnDiag diag;
    for (int s = 0; s < kNumSchemes; ++s) run_scheme(s, c, cfg, diag);
    column_to_buffer(c, buf);
    unstage_to_main(buf, p, col);
  }
}

sw::KernelStats physics_openacc(sw::CoreGroup& cg, PackedColumns& p,
                                const PhysicsAccConfig& cfg) {
  // One parallel region per scheme: columns are re-staged from main
  // memory for every scheme, and every scheme pays a spawn.
  auto kernel = [&](sw::Cpe& cpe) -> sw::Task {
    for (int scheme = 0; scheme < kNumSchemes; ++scheme) {
      for (int col = cpe.id(); col < p.ncols; col += sw::kCpesPerGroup) {
        sw::LdmFrame frame(cpe.ldm());
        const std::size_t n = static_cast<std::size_t>(p.nlev);
        // Stage the 6 column arrays into LDM (the directive copyin).
        auto buf = cpe.ldm().alloc<double>(6 * n);
        const std::size_t o = p.off(col);
        cpe.get(buf.subspan(0, n), p.t.data() + o);
        cpe.get(buf.subspan(n, n), p.q.data() + o);
        cpe.get(buf.subspan(2 * n, n), p.u.data() + o);
        cpe.get(buf.subspan(3 * n, n), p.v.data() + o);
        cpe.get(buf.subspan(4 * n, n), p.dp.data() + o);
        cpe.get(buf.subspan(5 * n, n), p.p.data() + o);

        phys::Column c = column_from_buffer(
            buf, p.nlev, p.ps[static_cast<std::size_t>(col)],
            p.sst[static_cast<std::size_t>(col)],
            p.lat[static_cast<std::size_t>(col)]);
        phys::ColumnDiag diag;
        run_scheme(scheme, c, cfg, diag);
        column_to_buffer(c, buf);
        cpe.scalar_flops(scheme_flops(scheme, p.nlev));

        // Write the prognostics back (4 arrays).
        cpe.dma_wait(cpe.dma_put(p.t.data() + o, buf.data(),
                                 n * sizeof(double)));
        cpe.dma_wait(cpe.dma_put(p.q.data() + o, buf.data() + n,
                                 n * sizeof(double)));
        cpe.dma_wait(cpe.dma_put(p.u.data() + o, buf.data() + 2 * n,
                                 n * sizeof(double)));
        cpe.dma_wait(cpe.dma_put(p.v.data() + o, buf.data() + 3 * n,
                                 n * sizeof(double)));
        co_await cpe.yield();
      }
      co_await cpe.barrier();  // region boundary
    }
  };
  return cg.run(kernel, sw::kCpesPerGroup,
                static_cast<double>(kNumSchemes) * sw::kSpawnCycles);
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
  ws.bind({FieldId::kColT, p_.t.data(), n, n, 1, 0, true});
  ws.bind({FieldId::kColQ, p_.q.data(), n, n, 1, 0, true});
  ws.bind({FieldId::kColU, p_.u.data(), n, n, 1, 0, true});
  ws.bind({FieldId::kColV, p_.v.data(), n, n, 1, 0, true});
  ws.bind({FieldId::kColDp, p_.dp.data(), n, n, 1, 0, false});
  ws.bind({FieldId::kColP, p_.p.data(), n, n, 1, 0, false});
}

std::vector<FieldUse> PhysicsSchemeKernel::footprint() const {
  return {
      {FieldId::kColT, Access::kReadWrite, /*keep=*/true},
      {FieldId::kColQ, Access::kReadWrite, /*keep=*/true},
      {FieldId::kColU, Access::kReadWrite, /*keep=*/true},
      {FieldId::kColV, Access::kReadWrite, /*keep=*/true},
      {FieldId::kColDp, Access::kRead, /*keep=*/true},
      {FieldId::kColP, Access::kRead, /*keep=*/true},
  };
}

std::size_t PhysicsSchemeKernel::transient_bytes(const Workset& ws,
                                                 const KeepSet& keep) const {
  // phys::Column lives on the host heap; LDM transients are only the
  // leases of fields admission left out.
  std::size_t bytes = 128;
  for (const FieldUse& u : footprint()) {
    if (!keep.has(u.id)) bytes += ws.at(u.id).extent * sizeof(double) + 32;
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

  const auto col = static_cast<std::size_t>(ctx.item());
  phys::Column c(p_.nlev);
  for (std::size_t l = 0; l < n; ++l) {
    c.t[l] = t[l];
    c.q[l] = q[l];
    c.u[l] = u[l];
    c.v[l] = v[l];
    c.dp[l] = dp[l];
    c.p[l] = pr[l];
  }
  c.ps = p_.ps[col];
  c.sfc = phys::surface_at(p_.lat[col], p_.sst[col]);

  phys::ColumnDiag diag;
  run_scheme(scheme_, c, cfg_, diag);
  cpe.scalar_flops(scheme_flops(scheme_, p_.nlev));

  for (std::size_t l = 0; l < n; ++l) {
    t[l] = c.t[l];
    q[l] = c.q[l];
    u[l] = c.u[l];
    v[l] = c.v[l];
  }
}

sw::KernelStats physics_athread(sw::CoreGroup& cg, PackedColumns& p,
                                const PhysicsAccConfig& cfg) {
  // The whole suite as one fused pipeline: each column's six arrays are
  // staged once, the later schemes' leases hit the residency ledger, and
  // the four prognostics flush once per column.
  PhysicsSchemeKernel rad(p, cfg, kRadiation);
  PhysicsSchemeKernel conv(p, cfg, kConvection);
  PhysicsSchemeKernel cond(p, cfg, kCondensation);
  PhysicsSchemeKernel sfc(p, cfg, kSurfacePbl);
  KernelPipeline pipe({&rad, &conv, &cond, &sfc});
  return pipe.run(cg);
}

double columns_max_rel_diff(const PackedColumns& a, const PackedColumns& b) {
  double worst = 0.0;
  auto cmp = [&](const std::vector<double>& x, const std::vector<double>& y) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double scale = std::max({std::abs(x[i]), std::abs(y[i]), 1e-30});
      worst = std::max(worst, std::abs(x[i] - y[i]) / scale);
    }
  };
  cmp(a.t, b.t);
  cmp(a.q, b.q);
  cmp(a.u, b.u);
  cmp(a.v, b.v);
  return worst;
}

}  // namespace accel
