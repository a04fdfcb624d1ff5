#pragma once

#include <cstddef>
#include <span>

#include "homme/ops.hpp"
#include "homme/state.hpp"
#include "mesh/cubed_sphere.hpp"

/// \file dss.hpp
/// Direct stiffness summation (DSS) — the assembly that projects
/// element-wise (discontinuous) fields onto the continuous
/// spectral-element space: mass-weighted sums at shared GLL points,
/// divided by the assembled mass.
///
/// The model's one DSS (BndryExchange, at every rank count) runs the
/// element body below. An element field is level-major
/// ([lev][point], fidx layout) but a node accumulator is node-major
/// ([node][lev]), so the body works in vpack::width x vpack::width blocks:
/// it multiplies W levels of W points by the mass in packs, turns the
/// block with vpack::transpose (section 7.5's register transpose) and adds
/// W levels of each node at once. The scatter mirrors it. Each (node,
/// level) sum receives the same products in the same order as the scalar
/// loop, so the bits are those of the scalar DSS frozen in homme::ref.

namespace homme {

class ScratchArena;

// -- the element body --------------------------------------------------------
//
// ids[k] is the accumulator row of the element's point k. A scalar row
// holds nlev doubles (one per level); a vector row holds 3 * nlev, the x,
// y and z components' levels one after another. The accumulation adds
// into acc in place, so the caller's element order is the summation order.

/// acc[ids[k] * nlev + lev] += mass[k] * f[fidx(lev, k)].
void dss_accumulate(const int* ids, const double* mass, const double* f,
                    int nlev, double* acc);
/// f[fidx(lev, k)] = acc[ids[k] * nlev + lev] * rmass[k].
void dss_scatter(const int* ids, const double* rmass, const double* acc,
                 int nlev, double* f);

/// The vector DSS's element body: rotates (u1, u2) to Cartesian x, y, z a
/// block of levels at a time (adjacent faces use different frames) and
/// accumulates component c into acc[ids[k] * 3 * nlev + c * nlev + lev].
void dss_accumulate_vector(const FrameView& fr, const int* ids,
                           const double* mass, const double* u1,
                           const double* u2, int nlev, double* acc);
/// Scatters the three components and rotates them back into (u1, u2)
/// with the dual basis.
void dss_scatter_vector(const FrameView& fr, const int* ids,
                        const double* rmass, const double* acc, int nlev,
                        double* u1, double* u2);

/// The per-element pointer table of a member field, in the caller's frame
/// of \p a: element e's \p member chunk, \p offset doubles in (a tracer's
/// slab of qdp). DSS writes in place, so this takes the write path: each
/// chunk is un-shared (COW) up front if a forked member still aliases it.
std::span<double*> arena_ptrs(ScratchArena& a, State& s,
                              Chunk ElementState::*member,
                              std::size_t offset = 0);

}  // namespace homme
