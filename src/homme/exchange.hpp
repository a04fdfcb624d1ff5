#pragma once

#include <span>

#include "homme/bndry.hpp"
#include "homme/dss.hpp"
#include "mesh/cubed_sphere.hpp"
#include "obs/trace.hpp"

/// \file exchange.hpp
/// homme::Exchange — the exchange policy a dynamics step runs against.
///
/// prim_run is one step whether it runs on one rank or many: three
/// compute_and_apply_rhs stages, the euler_step subcycle, nabla^4
/// hyperviscosity and the remap. An Exchange names the elements a kernel
/// sweeps (local index -> mesh element) and assembles their DSS through
/// one BndryExchange: the whole mesh in mesh order with no neighbours on
/// one rank, or one rank's elements (Partition::rank_elems order) over
/// its net::Rank in a section 7.6 mode. Every (node, level) sum adds its
/// elements in ascending global id, so the rank count never changes the
/// bits. The Dycore hands its kernels a traced() copy, so every DSS call
/// shows as a dyn:dss span on the Dycore's track (at N ranks the bndry:*
/// spans nest inside it). An Exchange is a view: build one per call (a
/// net::Rank handle lives for one net::Cluster::run only).

namespace homme {

class Exchange {
 public:
  /// \p bx's elements, assembled by \p bx; \p r carries the messages in
  /// \p mode (nullptr when bx has no neighbours: one rank).
  explicit Exchange(BndryExchange& bx, net::Rank* r = nullptr,
                    BndryExchange::Mode mode = BndryExchange::Mode::kOverlap)
      : bx_(&bx), rank_(r), mode_(mode) {}

  /// The same exchange, opening a dyn:dss span on \p trk around every
  /// DSS call (nullptr: untraced).
  Exchange traced(obs::Track* trk) const {
    Exchange x = *this;
    x.trk_ = trk;
    return x;
  }

  /// Elements covered; kernels index states by local position 0..nelem-1.
  int nelem() const { return bx_->nlocal(); }
  /// Geometry of local element \p le.
  const mesh::ElementGeom& geom(int le) const {
    return bx_->mesh().geom(bx_->global_elem(le));
  }

  /// DSS one multi-level scalar field (one pointer per local element).
  void dss(std::span<double* const> fields, int nlev) const {
    obs::ScopedSpan span(trk_, "dyn:dss");
    bx_->dss_levels(fields, nlev, rank_, mode_);
  }
  /// DSS a contravariant vector field.
  void dss_vector(std::span<double* const> u1, std::span<double* const> u2,
                  int nlev) const {
    obs::ScopedSpan span(trk_, "dyn:dss");
    bx_->dss_vector_levels(u1, u2, nlev, rank_, mode_);
  }

 private:
  BndryExchange* bx_;
  net::Rank* rank_;
  BndryExchange::Mode mode_;
  obs::Track* trk_ = nullptr;
};

}  // namespace homme
