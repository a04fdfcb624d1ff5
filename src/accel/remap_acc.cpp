#include "accel/remap_acc.hpp"

#include <vector>

#include "accel/pipeline.hpp"
#include "accel/tile_math.hpp"
#include "homme/dims.hpp"
#include "homme/remap.hpp"
#include "homme/scratch.hpp"
#include "homme/state.hpp"
#include "sw/task.hpp"
#include "sw/transpose.hpp"

namespace accel {

using homme::fidx;
using homme::kPtop;

namespace {

/// Approximate retired flops of one column remap (slope construction,
/// Hermite evaluation, differencing).
std::uint64_t remap_flops(int nlev) {
  return static_cast<std::uint64_t>(nlev) * 30;
}

/// Remap every field of one column given gathered source thickness.
/// Fields are contiguous [nlev] arrays. Target grid: uniform reference.
void column_target(const double* src_dp, int nlev, double* tgt_dp) {
  double ps = kPtop;
  for (int l = 0; l < nlev; ++l) ps += src_dp[l];
  const double ref = (ps - kPtop) / nlev;
  for (int l = 0; l < nlev; ++l) tgt_dp[l] = ref;
}

}  // namespace

void remap_ref(PackedElems& p) {
  const int nlev = p.nlev;
  std::vector<double> src(static_cast<std::size_t>(nlev)),
      tgt(static_cast<std::size_t>(nlev)), col(static_cast<std::size_t>(nlev));
  for (int e = 0; e < p.nelem; ++e) {
    const std::size_t eo = p.elem_offset(e);
    for (int k = 0; k < kNpp; ++k) {
      for (int l = 0; l < nlev; ++l) {
        src[static_cast<std::size_t>(l)] = p.dp[eo + fidx(l, k)];
      }
      column_target(src.data(), nlev, tgt.data());
      auto remap_field = [&](double* base) {
        for (int l = 0; l < nlev; ++l) {
          col[static_cast<std::size_t>(l)] = base[eo + fidx(l, k)];
        }
        homme::remap_column(src, tgt, col);
        for (int l = 0; l < nlev; ++l) {
          base[eo + fidx(l, k)] = col[static_cast<std::size_t>(l)];
        }
      };
      remap_field(p.u1.data());
      remap_field(p.u2.data());
      remap_field(p.T.data());
      for (int q = 0; q < p.qsize; ++q) {
        double* qd = p.qdp.data() + p.qdp_offset(e, q) - eo;  // rebase
        for (int l = 0; l < nlev; ++l) {
          col[static_cast<std::size_t>(l)] =
              qd[eo + fidx(l, k)] / src[static_cast<std::size_t>(l)];
        }
        homme::remap_column(src, tgt, col);
        for (int l = 0; l < nlev; ++l) {
          qd[eo + fidx(l, k)] =
              col[static_cast<std::size_t>(l)] * tgt[static_cast<std::size_t>(l)];
        }
      }
      for (int l = 0; l < nlev; ++l) {
        p.dp[eo + fidx(l, k)] = tgt[static_cast<std::size_t>(l)];
      }
    }
  }
}

namespace {

/// Gather one column (GLL point k of element e) of a field into LDM with
/// a single strided DMA descriptor.
void gather_column(sw::Cpe& cpe, const double* base, std::size_t eo, int k,
                   int nlev, std::span<double> out) {
  cpe.dma_wait(cpe.dma_get_strided(out.data(), base + eo + fidx(0, k),
                                   sizeof(double),
                                   static_cast<std::size_t>(nlev),
                                   kNpp * sizeof(double)));
}

void scatter_column(sw::Cpe& cpe, double* base, std::size_t eo, int k,
                    int nlev, std::span<const double> in) {
  cpe.dma_wait(cpe.dma_put_strided(base + eo + fidx(0, k), in.data(),
                                   sizeof(double),
                                   static_cast<std::size_t>(nlev),
                                   kNpp * sizeof(double)));
}

}  // namespace

sw::KernelStats remap_openacc(sw::CoreGroup& cg, PackedElems& p) {
  const int nlev = p.nlev;
  const int columns = p.nelem * kNpp;
  auto kernel = [&](sw::Cpe& cpe) -> sw::Task {
    for (int c = cpe.id(); c < columns; c += sw::kCpesPerGroup) {
      const int e = c / kNpp;
      const int k = c % kNpp;
      const std::size_t eo = p.elem_offset(e);
      sw::LdmFrame frame(cpe.ldm());
      auto src = cpe.ldm().alloc<double>(static_cast<std::size_t>(nlev));
      auto tgt = cpe.ldm().alloc<double>(static_cast<std::size_t>(nlev));
      auto col = cpe.ldm().alloc<double>(static_cast<std::size_t>(nlev));

      auto remap_field = [&](double* base, bool as_ratio) {
        // Per-loop copyin: the directive port re-gathers dp every time.
        gather_column(cpe, p.dp.data(), eo, k, nlev, src);
        column_target(src.data(), nlev, tgt.data());
        cpe.scalar_flops(static_cast<std::uint64_t>(nlev) * 2);
        gather_column(cpe, base, eo, k, nlev, col);
        if (as_ratio) {
          for (int l = 0; l < nlev; ++l) {
            col[static_cast<std::size_t>(l)] /= src[static_cast<std::size_t>(l)];
          }
          cpe.scalar_flops(static_cast<std::uint64_t>(nlev));
        }
        homme::remap_column(src, tgt, col);
        cpe.scalar_flops(remap_flops(nlev));
        if (as_ratio) {
          for (int l = 0; l < nlev; ++l) {
            col[static_cast<std::size_t>(l)] *= tgt[static_cast<std::size_t>(l)];
          }
          cpe.scalar_flops(static_cast<std::uint64_t>(nlev));
        }
        scatter_column(cpe, base, eo, k, nlev, col);
      };
      remap_field(p.u1.data(), false);
      remap_field(p.u2.data(), false);
      remap_field(p.T.data(), false);
      for (int q = 0; q < p.qsize; ++q) {
        remap_field(p.qdp.data() + p.qdp_offset(e, q) - eo, true);
      }
      gather_column(cpe, p.dp.data(), eo, k, nlev, src);
      column_target(src.data(), nlev, tgt.data());
      cpe.scalar_flops(static_cast<std::uint64_t>(nlev) * 2);
      scatter_column(cpe, p.dp.data(), eo, k, nlev, tgt);
      co_await cpe.yield();
    }
  };
  return cg.run(kernel, sw::kCpesPerGroup, sw::kSpawnCycles);
}

void RemapKernel::bind(Workset& ws) const {
  ws.items(p_.nelem, p_.nlev);
  const std::size_t fs = p_.field_size();
  ws.bind({FieldId::kDp, p_.dp.data(), fs, fs, 1, 0, true});
  ws.bind({FieldId::kU1, p_.u1.data(), fs, fs, 1, 0, true});
  ws.bind({FieldId::kU2, p_.u2.data(), fs, fs, 1, 0, true});
  ws.bind({FieldId::kT, p_.T.data(), fs, fs, 1, 0, true});
  if (p_.qsize > 0) {
    ws.bind({FieldId::kQdp, p_.qdp.data(),
             static_cast<std::size_t>(p_.qsize) * fs, fs, p_.qsize, fs,
             true});
  }
}

std::vector<FieldUse> RemapKernel::footprint() const {
  std::vector<FieldUse> uses = {
      {FieldId::kDp, Access::kReadWrite, /*keep=*/true},
      {FieldId::kU1, Access::kReadWrite, /*keep=*/true},
      {FieldId::kU2, Access::kReadWrite, /*keep=*/true},
      {FieldId::kT, Access::kReadWrite, /*keep=*/true},
  };
  if (p_.qsize > 0) uses.push_back({FieldId::kQdp, Access::kReadWrite, false});
  return uses;
}

std::size_t RemapKernel::transient_bytes(const Workset& ws,
                                         const KeepSet&) const {
  // Transposed dp + transposed field + target column scratch, plus one
  // full-extent transient lease (tracers always stream), plus slop.
  const std::size_t n = ws.at(FieldId::kDp).extent;
  return (3 * n + static_cast<std::size_t>(ws.nlev)) * sizeof(double) + 256;
}

void RemapKernel::element(sw::Cpe& cpe, ElemCtx& ctx) const {
  // Sections 7.3 + 7.5 combined: each field streams as ONE contiguous
  // block, the 8-shuffle register transpose switches the array axis in
  // LDM, the 16 now-contiguous columns remap, and the block transposes
  // back. Each column's remap plan (source/target grids, intervals and
  // Hermite weights) is built once and reused across u, v, T and every
  // tracer; in a chain the prognostic leases resolve to the buffers a
  // preceding kernel left resident.
  const int nlev = p_.nlev;
  const std::size_t n = p_.field_size();  // nlev * 16
  auto dpt = cpe.ldm().alloc<double>(n);  // [16][lev] transposed dp
  auto ft = cpe.ldm().alloc<double>(n);   // [16][lev] transposed field
  auto tgt = cpe.ldm().alloc<double>(static_cast<std::size_t>(nlev));
  double tgt_ref[kNpp];

  {
    FieldLease dps = ctx.lease(FieldId::kDp, 0, 0, n, Access::kRead);
    sw::ldm_transpose(cpe, dps.data(), dpt.data(), nlev, kNpp);
  }
  const std::size_t levels = static_cast<std::size_t>(nlev);
  auto src_col = [&](int k) {
    return std::span<const double>(
        dpt.data() + static_cast<std::size_t>(k) * levels, levels);
  };
  // The plans live in the host thread's scratch arena, not in the
  // modeled LDM: element() never suspends, so this frame closes before
  // the next CPE runs.
  homme::ScratchArena& arena = homme::ScratchArena::thread_local_arena();
  const std::size_t need =
      kNpp * homme::ColumnRemapPlan::scratch_doubles(levels);
  if (arena.capacity() < need) arena.require(need);
  homme::ScratchArena::Frame frame(arena);
  homme::ColumnRemapPlan plans[kNpp];
  for (int k = 0; k < kNpp; ++k) {
    column_target(src_col(k).data(), nlev, tgt.data());
    tgt_ref[k] = tgt[0];  // uniform target thickness of this column
    plans[k] = homme::ColumnRemapPlan::checked(src_col(k), tgt, arena);
  }
  cpe.scalar_flops(static_cast<std::uint64_t>(kNpp * nlev));

  auto remap_field = [&](FieldId id, int sub, bool as_ratio) {
    FieldLease fld = ctx.lease(id, sub, 0, n, Access::kReadWrite);
    sw::ldm_transpose(cpe, fld.data(), ft.data(), nlev, kNpp);
    for (int k = 0; k < kNpp; ++k) {
      double* col = ft.data() + static_cast<std::size_t>(k) * nlev;
      const std::span<const double> src = src_col(k);
      for (int l = 0; l < nlev; ++l) {
        tgt[static_cast<std::size_t>(l)] = tgt_ref[k];
      }
      if (as_ratio) {
        for (int l = 0; l < nlev; ++l) col[l] /= src[l];
        cpe.scalar_flops(static_cast<std::uint64_t>(nlev));
      }
      plans[k].apply(src, tgt, std::span<double>(col, levels));
      cpe.scalar_flops(remap_flops(nlev));
      if (as_ratio) {
        for (int l = 0; l < nlev; ++l) col[l] *= tgt_ref[k];
        cpe.scalar_flops(static_cast<std::uint64_t>(nlev));
      }
    }
    sw::ldm_transpose(cpe, ft.data(), fld.data(), kNpp, nlev);
  };
  remap_field(FieldId::kU1, 0, false);
  remap_field(FieldId::kU2, 0, false);
  remap_field(FieldId::kT, 0, false);
  for (int q = 0; q < p_.qsize; ++q) {
    remap_field(FieldId::kQdp, q, true);
  }
  {
    // dp becomes the reference thickness: a pure overwrite, so the lease
    // skips the stage-in ([lev][16] is uniform per column).
    FieldLease dpw = ctx.lease(FieldId::kDp, 0, 0, n, Access::kWrite);
    for (int lev = 0; lev < nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        dpw[fidx(lev, k)] = tgt_ref[k];
      }
    }
  }
}

sw::KernelStats remap_athread(sw::CoreGroup& cg, PackedElems& p) {
  RemapKernel k(p);
  KernelPipeline pipe({&k});
  return pipe.run(cg);
}

}  // namespace accel
