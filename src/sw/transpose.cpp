#include "sw/transpose.hpp"

#include <cassert>

namespace sw {

namespace {

/// Cycles for the 8 shuffle instructions plus load/store of one 4x4 tile.
constexpr double kTileTransposeCycles = 16.0;

/// Load a 4x4 tile (row-major, row stride \p stride doubles), transpose it
/// in registers, store to \p out (row stride \p out_stride).
void transpose_tile(const double* in, int stride, double* out,
                    int out_stride) {
  v4d r0 = v4d::load(in);
  v4d r1 = v4d::load(in + stride);
  v4d r2 = v4d::load(in + 2 * stride);
  v4d r3 = v4d::load(in + 3 * stride);
  transpose4x4(r0, r1, r2, r3);
  r0.store(out);
  r1.store(out + out_stride);
  r2.store(out + 2 * out_stride);
  r3.store(out + 3 * out_stride);
}

}  // namespace

double transpose_cycles(int rows, int cols) {
  assert(rows % 4 == 0 && cols % 4 == 0);
  return kTileTransposeCycles * (rows / 4) * (cols / 4);
}

void ldm_transpose(Cpe& cpe, const double* in, double* out, int rows,
                   int cols) {
  assert(rows % 4 == 0 && cols % 4 == 0);
  for (int i = 0; i < rows; i += 4) {
    for (int j = 0; j < cols; j += 4) {
      transpose_tile(in + i * cols + j, cols, out + j * rows + i, rows);
    }
  }
  cpe.cycles(transpose_cycles(rows, cols));
}

void ldm_transpose_inplace(Cpe& cpe, double* a, int n) {
  assert(n % 4 == 0);
  for (int i = 0; i < n; i += 4) {
    // Diagonal tile: transpose in place.
    {
      v4d r0 = v4d::load(a + i * n + i);
      v4d r1 = v4d::load(a + (i + 1) * n + i);
      v4d r2 = v4d::load(a + (i + 2) * n + i);
      v4d r3 = v4d::load(a + (i + 3) * n + i);
      transpose4x4(r0, r1, r2, r3);
      r0.store(a + i * n + i);
      r1.store(a + (i + 1) * n + i);
      r2.store(a + (i + 2) * n + i);
      r3.store(a + (i + 3) * n + i);
    }
    for (int j = i + 4; j < n; j += 4) {
      // Off-diagonal pair: transpose both tiles and swap them.
      double tmp[16];
      v4d r0 = v4d::load(a + i * n + j);
      v4d r1 = v4d::load(a + (i + 1) * n + j);
      v4d r2 = v4d::load(a + (i + 2) * n + j);
      v4d r3 = v4d::load(a + (i + 3) * n + j);
      transpose4x4(r0, r1, r2, r3);
      r0.store(tmp);
      r1.store(tmp + 4);
      r2.store(tmp + 8);
      r3.store(tmp + 12);
      transpose_tile(a + j * n + i, n, a + i * n + j, n);
      for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) {
          a[(j + r) * n + i + c] = tmp[r * 4 + c];
        }
      }
    }
  }
  cpe.cycles(2.0 * kTileTransposeCycles * (n / 4) * (n / 4));
}

CoTask<void> cpe_block_transpose(Cpe& cpe, std::span<double> blocks, int n) {
  assert(n >= 1 && n <= kCpeCols && (n & (n - 1)) == 0);
  const int i = cpe.col();
  const bool active = i < n;
  assert(!active || blocks.size() >= static_cast<std::size_t>(n) * 16);

  // Phase k: exchange tile i^k with CPE i^k in the same row. Both sides
  // send their 4 register messages first (they fit the FIFO depth), then
  // receive; a core-group barrier separates phases so no stale message
  // can be mistaken for a current-phase one.
  for (int k = 1; k < n; ++k) {
    if (active) {
      const int partner = i ^ k;
      double* tile = blocks.data() + static_cast<std::size_t>(partner) * 16;
      for (int m = 0; m < 4; ++m) {
        co_await cpe.send_row(partner, v4d::load(tile + 4 * m));
      }
      for (int m = 0; m < 4; ++m) {
        const v4d msg = co_await cpe.recv_row();
        msg.store(tile + 4 * m);
      }
    }
    co_await cpe.barrier();
  }

  // Local pass: every tile (including the diagonal one) still holds
  // row-major data of the *original* orientation; transpose each in
  // registers to finish.
  if (active) {
    for (int j = 0; j < n; ++j) {
      double* tile = blocks.data() + static_cast<std::size_t>(j) * 16;
      v4d r0 = v4d::load(tile);
      v4d r1 = v4d::load(tile + 4);
      v4d r2 = v4d::load(tile + 8);
      v4d r3 = v4d::load(tile + 12);
      transpose4x4(r0, r1, r2, r3);
      r0.store(tile);
      r1.store(tile + 4);
      r2.store(tile + 8);
      r3.store(tile + 12);
    }
    cpe.cycles(kTileTransposeCycles * n);
  }
}

}  // namespace sw
