#pragma once

#include "homme/ops.hpp"
#include "homme/state.hpp"
#include "mesh/cubed_sphere.hpp"

/// \file euler.hpp
/// euler_step — Table 1's most expensive kernel: the strong stability
/// preserving (SSP) Runge-Kutta tracer advection step.
///
/// Each tracer's mass qdp obeys d(qdp)/dt = -div(u qdp) with the wind
/// frozen over the subcycle. The three-stage SSP-RK3 scheme performs
/// three RHS evaluations, each followed by DSS — the "3 sub-cycles edge
/// packing/unpacking and boundary exchange" whose communication cost
/// section 7.6 attacks with overlap.

namespace homme {

class Exchange;

/// Advance all tracers of \p s (\p x's elements) by \p dt with SSP-RK3,
/// every stage DSSed through \p x. If \p limit is true, apply a
/// positivity limiter after each stage (clip negatives and rescale within
/// the element to conserve tracer mass).
void euler_step(const Exchange& x, const Dims& d, State& s, double dt,
                bool limit = true);

/// One level of element_tracer_rhs on level tiles (16 doubles each):
/// r = -div(u q). The divergence reads only \p g's jac, so a packed or
/// LDM-staged jac tile feeds it as well as a mesh::ElementGeom; the host
/// loop and the CPE ports run this one body.
void tracer_rhs_level(const MetricView& g, const double* u1,
                      const double* u2, const double* q, double* r);

/// One advection RHS for a single element and tracer: out = -div(u q).
void element_tracer_rhs(const mesh::ElementGeom& g, const Dims& d,
                        const ElementState& es,
                        std::span<const double> qdp, std::span<double> rhs);

/// The element-local positivity limiter (exposed for tests): clips
/// negative qdp values and rescales the positive ones so each element
/// level conserves its tracer mass, when possible. Runs vpack::width
/// levels at a time, one per lane, bit-identical to
/// homme::ref::positivity_limiter.
void positivity_limiter(const mesh::ElementGeom& g, int nlev,
                        std::span<double> qdp);

/// Global tracer mass sum_q integral(qdp) dA (diagnostic).
double tracer_mass(const mesh::CubedSphere& m, const Dims& d, const State& s,
                   int tracer);

}  // namespace homme
