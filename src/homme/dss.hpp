#pragma once

#include <span>
#include <vector>

#include "homme/ops.hpp"
#include "mesh/cubed_sphere.hpp"

/// \file dss.hpp
/// Direct stiffness summation (DSS) — the assembly that projects
/// element-wise (discontinuous) fields onto the continuous
/// spectral-element space: mass-weighted sums at shared GLL points,
/// divided by the assembled mass.
///
/// Every DSS in the model, whole-mesh or per rank (BndryExchange), runs
/// the one element body below. An element field is level-major
/// ([lev][point], fidx layout) but a node accumulator is node-major
/// ([node][lev]), so the body works in vpack::width x vpack::width blocks:
/// it multiplies W levels of W points by the mass in packs, turns the
/// block with vpack::transpose (section 7.5's register transpose) and adds
/// W levels of each node at once. The scatter mirrors it. Each (node,
/// level) sum receives the same products in the same order as the scalar
/// loop, so the bits are those of the scalar DSS frozen in homme::ref.

namespace homme {

/// DSS one multi-level scalar field over the whole mesh, in mesh order.
/// elem_fields[e] points at element e's [nlev][kNpp] data (fidx layout).
/// Draws one nnodes x nlev accumulator from the thread's ScratchArena.
void dss_levels(const mesh::CubedSphere& m,
                std::span<double* const> elem_fields, int nlev);

/// DSS a contravariant vector field over the whole mesh. Adjacent faces
/// use different frames, so each element's components are rotated to
/// Cartesian 3-space a block of levels at a time, assembled, and projected
/// back with the dual basis. Draws three nnodes x nlev accumulators from
/// the thread's ScratchArena.
void dss_vector_levels(const mesh::CubedSphere& m,
                       std::span<double* const> u1,
                       std::span<double* const> u2, int nlev);

// -- the element body --------------------------------------------------------
//
// ids[k] is the accumulator row of the element's point k; a row holds nlev
// doubles (one per level). The accumulation adds into acc in place, so the
// caller's element order is the summation order.

/// acc[ids[k] * nlev + lev] += mass[k] * f[fidx(lev, k)].
void dss_accumulate(const int* ids, const double* mass, const double* f,
                    int nlev, double* acc);
/// f[fidx(lev, k)] = acc[ids[k] * nlev + lev] * rmass[k].
void dss_scatter(const int* ids, const double* rmass, const double* acc,
                 int nlev, double* f);

/// The vector DSS's element body: rotates (u1, u2) to Cartesian x, y, z a
/// block of levels at a time and accumulates component c into acc[c].
void dss_accumulate_vector(const FrameView& fr, const int* ids,
                           const double* mass, const double* u1,
                           const double* u2, int nlev, double* const* acc);
/// Scatters the three components and rotates them back into (u1, u2).
void dss_scatter_vector(const FrameView& fr, const int* ids,
                        const double* rmass, const double* const* acc,
                        int nlev, double* u1, double* u2);

/// Convenience: build the per-element pointer table for a member field.
/// DSS writes in place, so this takes the write path: each chunk is
/// un-shared (COW) up front if a forked member still aliases it.
template <typename StateVec, typename Member>
std::vector<double*> field_ptrs(StateVec& state, Member member) {
  std::vector<double*> p;
  p.reserve(state.size());
  for (auto& es : state) p.push_back((es.*member).mutable_span().data());
  return p;
}

}  // namespace homme
