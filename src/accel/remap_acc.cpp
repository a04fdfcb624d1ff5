#include "accel/remap_acc.hpp"

#include <algorithm>

#include "accel/pipeline.hpp"
#include "homme/remap.hpp"
#include "homme/scratch.hpp"
#include "homme/state.hpp"
#include "homme/vpack.hpp"
#include "sw/task.hpp"
#include "sw/transpose.hpp"

namespace accel {

using homme::fidx;

namespace {

/// Approximate retired flops of one column remap (slope construction,
/// Hermite evaluation, differencing).
std::uint64_t remap_flops(int nlev) {
  return static_cast<std::uint64_t>(nlev) * 30;
}

/// The remap target of the column whose source thicknesses are \p src:
/// homme::remap_target_dp at the column's mass, summed from 0.0 top down
/// as vertical_remap_local's scan sums it.
void fill_target(const homme::HybridCoord& hc, std::span<const double> src,
                 std::span<double> tgt) {
  double mass = 0.0;
  for (const double d : src) mass += d;
  for (std::size_t l = 0; l < tgt.size(); ++l) {
    tgt[l] = homme::remap_target_dp(hc, static_cast<int>(l), mass);
  }
}

/// Gather column \p k of the [lev][16] block at \p block into LDM with a
/// single strided DMA descriptor.
void gather_column(sw::Cpe& cpe, const double* block, int k, int nlev,
                   std::span<double> out) {
  cpe.dma_wait(cpe.dma_get_strided(out.data(), block + fidx(0, k),
                                   sizeof(double),
                                   static_cast<std::size_t>(nlev),
                                   kNpp * sizeof(double)));
}

void scatter_column(sw::Cpe& cpe, double* block, int k, int nlev,
                    std::span<const double> in) {
  cpe.dma_wait(cpe.dma_put_strided(block + fidx(0, k), in.data(),
                                   sizeof(double),
                                   static_cast<std::size_t>(nlev),
                                   kNpp * sizeof(double)));
}

}  // namespace

sw::KernelStats remap_openacc(sw::CoreGroup& cg, const homme::Dims& d,
                              homme::State& s) {
  const StateBlocks b(d, s);
  const int nlev = d.nlev;
  const int columns = b.nelem() * kNpp;
  const homme::HybridCoord hc = homme::HybridCoord::uniform(nlev);
  auto kernel = [&](sw::Cpe& cpe) -> sw::Task {
    for (int c = cpe.id(); c < columns; c += sw::kCpesPerGroup) {
      const int e = c / kNpp;
      const int k = c % kNpp;
      sw::LdmFrame frame(cpe.ldm());
      auto src = cpe.ldm().alloc<double>(static_cast<std::size_t>(nlev));
      auto tgt = cpe.ldm().alloc<double>(static_cast<std::size_t>(nlev));
      auto col = cpe.ldm().alloc<double>(static_cast<std::size_t>(nlev));

      auto remap_field = [&](const double* from, double* to, bool as_ratio) {
        // Per-loop copyin: the directive port re-gathers dp every time.
        gather_column(cpe, b.from(FieldId::kDp, e), k, nlev, src);
        fill_target(hc, src, tgt);
        cpe.scalar_flops(static_cast<std::uint64_t>(nlev) * 2);
        gather_column(cpe, from, k, nlev, col);
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
        scatter_column(cpe, to, k, nlev, col);
      };
      for (const FieldId id : {FieldId::kU1, FieldId::kU2, FieldId::kT}) {
        remap_field(b.from(id, e), b.to(id, e), false);
      }
      for (int q = 0; q < d.qsize; ++q) {
        const std::size_t sub = static_cast<std::size_t>(q) * d.field_size();
        remap_field(b.from(FieldId::kQdp, e) + sub,
                    b.to(FieldId::kQdp, e) + sub, true);
      }
      gather_column(cpe, b.from(FieldId::kDp, e), k, nlev, src);
      fill_target(hc, src, tgt);
      cpe.scalar_flops(static_cast<std::uint64_t>(nlev) * 2);
      scatter_column(cpe, b.to(FieldId::kDp, e), k, nlev, tgt);
      co_await cpe.yield();
    }
  };
  return cg.run(kernel, sw::kCpesPerGroup, sw::kSpawnCycles);
}

RemapKernel::RemapKernel(const StateBlocks& b, int begin, int end)
    : nelem_(end - begin), nlev_(b.dims().nlev), qsize_(b.dims().qsize) {
  // Every field is written; the prognostics stay resident across a chain,
  // the tracers stream.
  for (std::size_t f = 0; f < fields_.size(); ++f) {
    fields_[f] = b.binding(kStateFields[f], /*writable=*/true,
                           /*keep=*/kStateFields[f] != FieldId::kQdp, begin);
  }
}

void RemapKernel::bind(Workset& ws) const {
  ws.items(nelem_, nlev_);
  for (const FieldBinding& b : fields_) {
    if (b.id != FieldId::kQdp || qsize_ > 0) ws.bind(b);
  }
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
  // back. Each column's target thicknesses and remap plan (source/target
  // grids, intervals and Hermite weights) are built once and reused
  // across u, v, T and every tracer; in a chain the prognostic leases
  // resolve to the buffers a preceding kernel left resident.
  const int nlev = nlev_;
  const std::size_t n = static_cast<std::size_t>(nlev) * kNpp;
  // The port's modeled LDM footprint beside its leases. The host
  // arithmetic below reads none of these buffers.
  [[maybe_unused]] const auto dpt = cpe.ldm().alloc<double>(n);  // [16][lev]
  [[maybe_unused]] const auto ft = cpe.ldm().alloc<double>(n);   // [16][lev]
  [[maybe_unused]] const auto tgt =
      cpe.ldm().alloc<double>(static_cast<std::size_t>(nlev));  // a column

  // The host computes the columns' remap four at a time, in the lanes of
  // a vpack, on the [lev][16] blocks as the leases deliver them: the
  // transposes are charged, not executed. The source thicknesses, targets
  // and plans live in the host thread's scratch arena (not in the modeled
  // LDM: element() never suspends, so this frame closes before the next
  // CPE runs).
  using Plan = homme::BasicColumnRemapPlan<homme::vpack>;
  const std::size_t levels = static_cast<std::size_t>(nlev);
  homme::ScratchArena& arena = homme::ScratchArena::thread_local_arena();
  homme::ScratchArena::Frame frame(arena);
  double* const dp = arena.alloc(n).data();    // source thicknesses
  double* const tile = arena.alloc(n).data();  // targets
  double* const xs = arena.alloc((levels + 1) * kNpp).data();
  double* const xt = arena.alloc((levels + 1) * kNpp).data();
  {
    FieldLease dps = ctx.lease(FieldId::kDp, 0, 0, n, Access::kRead);
    cpe.cycles(sw::transpose_cycles(nlev, kNpp));
    std::copy(dps.data(), dps.data() + n, dp);
  }
  // Every column's targets from column masses summed level by level from
  // 0.0, as vertical_remap_local sums them.
  homme::cumulative_tiles(nlev, dp, xs);
  homme::remap_targets(homme::HybridCoord::uniform(nlev), xs + fidx(nlev, 0),
                       tile);
  homme::cumulative_tiles(nlev, tile, xt);
  if (!homme::tile_columns_remappable(nlev, dp, tile, xs, xt)) {
    // remap_column's guard, column by column: throws the first failing
    // column's RemapError.
    for (int k = 0; k < kNpp; ++k) {
      homme::ScratchArena::Frame column(arena);
      const std::span<double> src = arena.alloc(levels);
      const std::span<double> t = arena.alloc(levels);
      for (int l = 0; l < nlev; ++l) {
        src[static_cast<std::size_t>(l)] = dp[fidx(l, k)];
        t[static_cast<std::size_t>(l)] = tile[fidx(l, k)];
      }
      homme::ColumnRemapPlan::checked(src, t, arena);
    }
  }
  Plan plans[homme::kTilePacks];
  for (int p = 0; p < homme::kTilePacks; ++p) {
    const int k = p * homme::vpack::width;
    plans[p] = Plan(xs + k, xt + k, kNpp, levels, arena);
  }
  cpe.scalar_flops(static_cast<std::uint64_t>(kNpp * nlev));

  auto remap_field = [&](FieldId id, int sub, bool as_ratio) {
    FieldLease fld = ctx.lease(id, sub, 0, n, Access::kReadWrite);
    double* const f = fld.data();
    cpe.cycles(sw::transpose_cycles(nlev, kNpp));
    // Each column's modeled charges, in column order.
    for (int k = 0; k < kNpp; ++k) {
      if (as_ratio) cpe.scalar_flops(static_cast<std::uint64_t>(nlev));
      cpe.scalar_flops(remap_flops(nlev));
      if (as_ratio) cpe.scalar_flops(static_cast<std::uint64_t>(nlev));
    }
    for (int p = 0; p < homme::kTilePacks; ++p) {
      const int k = p * homme::vpack::width;
      if (as_ratio) {
        for (int l = 0; l < nlev; ++l) {
          const std::size_t i = fidx(l, k);
          (homme::vpack::load(f + i) / homme::vpack::load(dp + i)).store(f + i);
        }
      }
      plans[p].apply(dp + k, tile + k, f + k, kNpp);
      if (as_ratio) {
        for (int l = 0; l < nlev; ++l) {
          const std::size_t i = fidx(l, k);
          (homme::vpack::load(f + i) * homme::vpack::load(tile + i))
              .store(f + i);
        }
      }
    }
    cpe.cycles(sw::transpose_cycles(kNpp, nlev));
  };
  remap_field(FieldId::kU1, 0, false);
  remap_field(FieldId::kU2, 0, false);
  remap_field(FieldId::kT, 0, false);
  for (int q = 0; q < qsize_; ++q) {
    remap_field(FieldId::kQdp, q, true);
  }
  {
    // dp becomes the reference thickness: a pure overwrite, so the lease
    // skips the stage-in.
    FieldLease dpw = ctx.lease(FieldId::kDp, 0, 0, n, Access::kWrite);
    std::copy(tile, tile + n, dpw.data());
  }
}

sw::KernelStats remap_athread(sw::CoreGroup& cg, const homme::Dims& d,
                              homme::State& s) {
  const StateBlocks b(d, s);
  RemapKernel k(b, 0, b.nelem());
  KernelPipeline pipe({&k});
  return pipe.run(cg);
}

}  // namespace accel
