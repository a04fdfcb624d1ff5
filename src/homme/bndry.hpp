#pragma once

#include <array>
#include <span>
#include <vector>

#include "mesh/cubed_sphere.hpp"
#include "mesh/partition.hpp"
#include "net/mini_mpi.hpp"
#include "obs/trace.hpp"

/// \file bndry.hpp
/// bndry_exchangev — the model's one direct stiffness summation (DSS), at
/// every rank count, and the paper's section 7.6 redesign.
///
/// Every (node, level) sum starts at +0.0 and adds its elements in
/// ascending global element id, the order of a sum over the whole mesh,
/// so every copy of a node holds the same bits and N ranks step to the
/// one-rank bits; one rank is the case with no neighbours. A rank
/// accumulates its elements in ascending id. Each boundary element also
/// runs the element body into each neighbour's message, one row per
/// (element, shared node), as HOMME's edge buffers carry each element's
/// own values; after the receives, each shared node restarts at +0.0 and
/// adds its local and received rows in ascending element id. DESIGN.md
/// section 11 gives the row and plan layout.
///
/// The original HOMME design funnels every exchanged value through a
/// unified pack/unpack buffer: element values -> pack buffer -> MPI ->
/// recv buffer -> pack buffer -> elements. It is clean but costs an extra
/// pass of memory copies, and posts communication only after all elements
/// are computed.
///
/// The redesign (a) computes the boundary first, posts asynchronous
/// sends, overlaps the rank's accumulation with the communication, and
/// (b) receives *directly* into the rows the node sums read, skipping the
/// intermediate buffer. On TaihuLight this cut HOMME's runtime by 23%
/// (overlap) plus 30% (copy removal); here both paths produce
/// bit-identical results and the cost difference is captured by the
/// byte/copy counters and the analytic network model.
///
/// Every DSS call is one message round: one message per neighbour. A
/// vector DSS rotates each element to Cartesian components inside the
/// element body, and each of its rows holds the three components' levels,
/// component-major, the way bndry_exchangev packs several fields into one
/// edge buffer.

namespace homme {

/// Per-rank DSS engine. Element fields are indexed by *local* position:
/// the order of Partition::rank_elems[rank], or mesh order for the
/// whole-mesh (one-rank) exchange. The plan is built once, in the
/// constructor; a call's accumulators, rows and staging buffer come from
/// the calling thread's ScratchArena.
class BndryExchange {
 public:
  enum class Mode {
    kOriginal,  ///< pack-buffer design, no overlap
    kOverlap    ///< boundary-first + async + direct unpack (redesign)
  };

  /// The whole mesh in mesh order, on one rank: no neighbours, no
  /// messages.
  explicit BndryExchange(const mesh::CubedSphere& mesh);
  /// Rank \p rank's elements, in Partition::rank_elems order.
  BndryExchange(const mesh::CubedSphere& mesh, const mesh::Partition& part,
                const mesh::CommPlan& plan, int rank);

  const mesh::CubedSphere& mesh() const { return mesh_; }
  int nlocal() const { return static_cast<int>(local_elems_.size()); }
  /// Global element id of local element \p le.
  int global_elem(int le) const {
    return local_elems_[static_cast<std::size_t>(le)];
  }
  /// Local elements touching a node another rank's element touches,
  /// ascending global id.
  const std::vector<int>& boundary_elements() const { return boundary_; }

  /// DSS a multi-level scalar field (collective: every rank calls this
  /// with its own BndryExchange and fields). \p r carries the messages in
  /// \p mode; it may be null when there are no neighbours. Its node
  /// accumulator and rows come from the thread's ScratchArena.
  void dss_levels(std::span<double* const> fields, int nlev,
                  net::Rank* r = nullptr, Mode mode = Mode::kOverlap);

  /// DSS a contravariant vector field: each element is rotated to
  /// Cartesian components inside the element body, and one message per
  /// neighbour carries all three components, so its rows hold three times
  /// a scalar DSS's.
  void dss_vector_levels(std::span<double* const> u1,
                         std::span<double* const> u2, int nlev,
                         net::Rank* r = nullptr, Mode mode = Mode::kOverlap);

  /// Memory-copy traffic of the last DSS call, bytes: the send rows
  /// written, plus, in the original mode, the extra pass through the
  /// staging buffer that the redesign removes.
  std::size_t last_copy_bytes() const { return last_copy_bytes_; }
  /// MPI bytes sent by the last DSS call.
  std::size_t last_msg_bytes() const { return last_msg_bytes_; }

  /// Report exchange phases on \p trk (nullptr detaches). kOverlap emits
  /// bndry:pack (the boundary bodies writing the send rows) / post_send /
  /// inner_compute (the rank's whole accumulation: the section 7.6
  /// overlap window, open while the sends are in flight) / wait_unpack
  /// (receives and the shared-node sums) / scatter; kOriginal emits
  /// bndry:compute / pack / send / wait_unpack / scatter — inner_compute
  /// exists only in the redesign, which is what the ablation trace keys
  /// on. The track must belong to the thread that calls dss_levels
  /// (normally the net rank track).
  void set_track(obs::Track* trk) { trk_ = trk; }
  obs::Track* track() const { return trk_; }

 private:
  struct Neighbor {
    int rank;
    std::size_t send_first, send_rows;  ///< our message to it
    std::size_t recv_first, recv_rows;  ///< its message to us
  };
  /// One boundary element's body into the send rows: the row of each
  /// point, or the discard row where its neighbour does not share it.
  struct SendBody {
    int le;
    std::array<int, mesh::kNpp> ids;
  };

  /// One DSS call whose rows hold \p rowlen doubles (nlev per component):
  /// \p body(le, ids, acc) adds local element le into rows ids of acc,
  /// \p scatter(le, acc) writes it back.
  template <typename Body, typename Scatter>
  void assemble(net::Rank* r, std::size_t rowlen, Mode mode, Body&& body,
                Scatter&& scatter);
  /// Each shared node's accumulator row: +0.0 plus its rows in plan
  /// order, in packs over the row.
  void sum_shared(const double* rows, std::size_t rowlen, double* acc) const;

  const mesh::CubedSphere& mesh_;
  std::vector<int> local_elems_;
  /// Local elements in ascending global id: the accumulation order.
  std::vector<int> order_;
  std::vector<int> boundary_;

  int nlocal_nodes_ = 0;
  /// Per local element: the local node (accumulator row) of each point.
  std::vector<std::array<int, mesh::kNpp>> local_node_of_elem_;
  std::vector<Neighbor> neighbors_;
  std::vector<SendBody> send_bodies_;
  /// Rows are numbered over one block: the send rows, the discard row,
  /// then the receive rows.
  std::size_t send_rows_ = 0, recv_rows_ = 0;
  /// Shared node i is local node shared_nodes_[i]; its rows are
  /// shared_rows_[shared_first_[i], shared_first_[i + 1]), ascending
  /// global element id.
  std::vector<int> shared_nodes_;
  std::vector<int> shared_first_;
  std::vector<int> shared_rows_;

  std::size_t last_copy_bytes_ = 0;
  std::size_t last_msg_bytes_ = 0;
  obs::Track* trk_ = nullptr;
};

}  // namespace homme
