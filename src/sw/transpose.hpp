#pragma once

#include <span>

#include "sw/core_group.hpp"
#include "sw/task.hpp"

/// \file transpose.hpp
/// The shuffle + register-communication array transposition of section 7.5
/// / Figure 3 of the paper.
///
/// Axis switches between loops (vertical <-> horizontal sweeps) are cheap
/// on cache hierarchies but disastrous with a 64 KB software-managed LDM.
/// The paper transposes small 4x4 tiles entirely in vector registers with
/// 8 shuffle instructions, and composes larger distributed transposes from
/// pairwise tile exchanges over register communication: in phase k of
/// n-1 phases, CPE i swaps one tile with CPE i XOR k — a collision-free
/// pairing per phase.

namespace sw {

/// Modeled cycles of an ldm_transpose of a \p rows x \p cols matrix: the 8
/// shuffles plus the load and store of each 4x4 tile. A port whose host
/// arithmetic reads the untransposed block charges this in place of the
/// transpose it models. Dimensions must be multiples of 4.
double transpose_cycles(int rows, int cols);

/// Transpose the row-major \p rows x \p cols matrix \p in into \p out
/// (cols x rows), working tile-by-tile with the 8-shuffle in-register 4x4
/// transpose. Dimensions must be multiples of 4. Charges
/// transpose_cycles(rows, cols) on \p cpe.
void ldm_transpose(Cpe& cpe, const double* in, double* out, int rows,
                   int cols);

/// In-place square variant.
void ldm_transpose_inplace(Cpe& cpe, double* a, int n);

/// Distributed block transpose across CPE columns 0..n-1 of every row
/// (n must be a power of two, n <= 8).
///
/// Collective: must be awaited by *all* CPEs of the running kernel (it
/// synchronizes with core-group barriers between phases). CPE (r, i) with
/// i < n contributes \p blocks = n tiles of 16 doubles, tile j holding the
/// row-major 4x4 sub-matrix C[i][j] of that row's distributed matrix. On
/// return tile j holds the transposed sub-matrix C[j][i]^T, i.e. the
/// distributed matrix is globally transposed. CPEs with col >= n
/// participate only in the barriers.
CoTask<void> cpe_block_transpose(Cpe& cpe, std::span<double> blocks, int n);

}  // namespace sw
