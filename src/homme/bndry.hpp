#pragma once

#include <array>
#include <span>
#include <vector>

#include "mesh/cubed_sphere.hpp"
#include "mesh/partition.hpp"
#include "net/mini_mpi.hpp"
#include "obs/trace.hpp"

/// \file bndry.hpp
/// bndry_exchangev — the distributed direct stiffness summation and the
/// paper's section 7.6 redesign.
///
/// The original HOMME design funnels every exchanged value through a
/// unified pack/unpack buffer: element partial sums -> pack buffer ->
/// MPI -> recv buffer -> pack buffer -> elements. It is clean but costs
/// an extra pass of memory copies, and posts communication only after all
/// elements are packed.
///
/// The redesign (a) splits elements into an interior set and a boundary
/// set, computes the boundary first, posts asynchronous sends, overlaps
/// the interior computation with the communication, and (b) unpacks
/// receive buffers *directly* into the node accumulators, skipping the
/// intermediate pack buffer. On TaihuLight this cut HOMME's runtime by
/// 23% (overlap) plus 30% (copy removal); here both paths produce
/// bit-identical results and the cost difference is captured by the
/// byte/copy counters and the analytic network model.
///
/// Every DSS call is one message round: one message per neighbour. A
/// vector DSS rotates each element to Cartesian components inside the
/// element body and sends the three components' partial sums in that one
/// message, component-major, the way bndry_exchangev packs several fields
/// into one edge buffer.

namespace homme {

/// Per-rank engine for halo-assembled DSS. Element fields are indexed by
/// *local* position (the order of Partition::rank_elems[rank]). Both modes
/// assemble through dss.hpp's element body; each (node, level) sum adds
/// the rank's boundary elements, then its interior elements, then the
/// neighbours' partial sums in plan order. A call's node accumulators and
/// message buffers come from the calling thread's ScratchArena, so the
/// engine holds no per-call storage.
class BndryExchange {
 public:
  enum class Mode {
    kOriginal,  ///< pack-buffer design, no overlap
    kOverlap    ///< boundary-first + async + direct unpack (redesign)
  };

  BndryExchange(const mesh::CubedSphere& mesh, const mesh::Partition& part,
                const mesh::CommPlan& plan, int rank);

  const mesh::CubedSphere& mesh() const { return mesh_; }
  int nlocal() const { return static_cast<int>(local_elems_.size()); }
  /// Global element id of local element \p le.
  int global_elem(int le) const {
    return local_elems_[static_cast<std::size_t>(le)];
  }
  /// Local elements whose nodes are all rank-interior.
  const std::vector<int>& interior_elements() const { return interior_; }
  /// Local elements touching at least one shared node.
  const std::vector<int>& boundary_elements() const { return boundary_; }

  /// DSS a multi-level scalar field across all ranks (collective: every
  /// rank calls this with its own BndryExchange and fields). Draws
  /// dss_scratch(nlev) doubles from the thread's ScratchArena.
  void dss_levels(net::Rank& r, std::span<double* const> fields, int nlev,
                  Mode mode);

  /// DSS a contravariant vector field: each element is rotated to
  /// Cartesian components inside the element body, and one message per
  /// neighbour carries all three components' partial sums. Draws
  /// 3 * dss_scratch(nlev) doubles from the thread's ScratchArena.
  void dss_vector_levels(net::Rank& r, std::span<double* const> u1,
                         std::span<double* const> u2, int nlev, Mode mode);

  /// Arena doubles dss_levels draws: the node accumulator (one row of
  /// nlev per node of the local elements) and a send and a receive buffer
  /// for every neighbour's shared nodes.
  std::size_t dss_scratch(int nlev) const {
    return (static_cast<std::size_t>(nlocal_nodes_) + 2 * plan_nodes_) *
           static_cast<std::size_t>(nlev);
  }

  /// Memory-copy traffic of the last DSS call, bytes. The original mode
  /// pays the extra pack-buffer pass that the redesign removes.
  std::size_t last_copy_bytes() const { return last_copy_bytes_; }
  /// MPI bytes sent by the last DSS call.
  std::size_t last_msg_bytes() const { return last_msg_bytes_; }

  /// Report exchange phases on \p trk (nullptr detaches). kOverlap emits
  /// bndry:boundary_compute / pack / post_send / inner_compute (the
  /// section 7.6 overlap window, open while the sends are in flight) /
  /// wait_unpack / scatter; kOriginal emits bndry:compute / pack / send /
  /// wait_unpack / scatter — inner_compute exists only in the redesign,
  /// which is what the ablation trace keys on. The track must belong to
  /// the thread that calls dss_levels (normally the net rank track).
  void set_track(obs::Track* trk) { trk_ = trk; }
  obs::Track* track() const { return trk_; }

 private:
  struct Neighbor {
    int rank;
    std::vector<int> local_nodes;  ///< local node index per plan entry
    std::size_t first;  ///< plan entries of the neighbours before this one
  };

  /// One exchange of \p ncomp node accumulators: \p accumulate(elems)
  /// adds the listed local elements, then the neighbours' partial sums
  /// are added in plan order. \p msg holds the send and the receive
  /// buffers (2 * ncomp * plan entries * nlev).
  template <typename Accumulate>
  void assemble(net::Rank& r, double* const* acc, int ncomp, int nlev,
                std::span<double> msg, Mode mode, Accumulate&& accumulate);

  const mesh::CubedSphere& mesh_;
  std::vector<int> local_elems_;
  std::vector<int> interior_;
  std::vector<int> boundary_;

  int nlocal_nodes_ = 0;
  /// Per local element: the local node (accumulator row) of each point.
  std::vector<std::array<int, mesh::kNpp>> local_node_of_elem_;
  /// Per local element: 1 / globally assembled mass at each point.
  std::vector<std::array<double, mesh::kNpp>> elem_rmass_;
  std::vector<Neighbor> neighbors_;
  std::size_t plan_nodes_ = 0;  ///< plan entries over all neighbours
  std::vector<net::Request> sends_;  ///< kOverlap's in-flight sends

  std::size_t last_copy_bytes_ = 0;
  std::size_t last_msg_bytes_ = 0;
  obs::Track* trk_ = nullptr;
};

}  // namespace homme
