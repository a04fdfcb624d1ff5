#pragma once

#include <cstddef>
#include <span>

#include "homme/bndry.hpp"
#include "homme/dss.hpp"
#include "mesh/cubed_sphere.hpp"

/// \file exchange.hpp
/// homme::Exchange — the exchange policy a dynamics step runs against.
///
/// prim_run is one step whether it runs in one address space or over
/// ranks: three compute_and_apply_rhs stages, the euler_step subcycle,
/// nabla^4 hyperviscosity and the remap. Only the DSS differs. An
/// Exchange names the elements a kernel sweeps (local index -> mesh
/// element) and how their DSS assembles, so each kernel and the Dycore
/// keep one body. It has exactly two implementations:
///   - the whole mesh in mesh order, assembled by homme::dss_levels /
///     dss_vector_levels;
///   - one rank's elements (Partition::rank_elems order), assembled by
///     that rank's BndryExchange bound to its net::Rank and mode — the
///     section 7.6 bndry_exchangev.
/// An Exchange is a view: build one per call (a net::Rank handle lives
/// for one net::Cluster::run only).

namespace homme {

class Exchange {
 public:
  /// Every element of \p m, mesh order, whole-mesh DSS.
  explicit Exchange(const mesh::CubedSphere& m) : mesh_(&m) {}
  /// \p bx's rank-local elements, halo-assembled over \p r in \p mode.
  Exchange(BndryExchange& bx, net::Rank& r, BndryExchange::Mode mode)
      : mesh_(&bx.mesh()), bx_(&bx), rank_(&r), mode_(mode) {}

  /// Elements covered; kernels index states by local position 0..nelem-1.
  int nelem() const {
    return bx_ != nullptr ? bx_->nlocal() : mesh_->nelem();
  }
  /// Geometry of local element \p le.
  const mesh::ElementGeom& geom(int le) const {
    return mesh_->geom(bx_ != nullptr ? bx_->global_elem(le) : le);
  }

  /// DSS one multi-level scalar field (one pointer per local element).
  void dss(std::span<double* const> fields, int nlev) const {
    if (bx_ != nullptr) {
      bx_->dss_levels(*rank_, fields, nlev, mode_);
    } else {
      dss_levels(*mesh_, fields, nlev);
    }
  }
  /// DSS a contravariant vector field.
  void dss_vector(std::span<double* const> u1, std::span<double* const> u2,
                  int nlev) const {
    if (bx_ != nullptr) {
      bx_->dss_vector_levels(*rank_, u1, u2, nlev, mode_);
    } else {
      dss_vector_levels(*mesh_, u1, u2, nlev);
    }
  }

  /// Arena doubles one dss() call draws on top of its caller's live
  /// frames: the whole-mesh node accumulator, or nothing (a BndryExchange
  /// keeps its accumulator as a member). Callers that hold a frame across
  /// dss() reserve this on top of their own scratch.
  std::size_t dss_scratch(int nlev) const {
    return bx_ != nullptr ? 0
                          : static_cast<std::size_t>(mesh_->nnodes()) *
                                static_cast<std::size_t>(nlev);
  }

 private:
  const mesh::CubedSphere* mesh_;
  BndryExchange* bx_ = nullptr;
  net::Rank* rank_ = nullptr;
  BndryExchange::Mode mode_ = BndryExchange::Mode::kOverlap;
};

}  // namespace homme
