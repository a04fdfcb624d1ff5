#include "homme/bndry.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "homme/dss.hpp"
#include "homme/scratch.hpp"

namespace homme {

using mesh::kNpp;

BndryExchange::BndryExchange(const mesh::CubedSphere& mesh,
                             const mesh::Partition& part,
                             const mesh::CommPlan& plan, int rank)
    : mesh_(mesh),
      local_elems_(part.rank_elems[static_cast<std::size_t>(rank)]) {
  // Dense local node numbering over every node touched by local elements.
  std::unordered_map<int, int> node_index;
  for (int ge : local_elems_) {
    for (int node : mesh.nodes(ge)) {
      if (node_index.emplace(node, nlocal_nodes_).second) ++nlocal_nodes_;
    }
  }

  // Per local element and point: the local node, and the assembled
  // (global) inverse mass, summed over the node's elements in mesh order
  // so every copy of a node holds the same double. An element touching a
  // node another rank's element touches is a boundary element (section
  // 7.6's split); those nodes are exactly the comm plan's.
  local_node_of_elem_.resize(local_elems_.size());
  elem_rmass_.resize(local_elems_.size());
  for (std::size_t le = 0; le < local_elems_.size(); ++le) {
    const auto& ids = mesh.nodes(local_elems_[le]);
    bool shared = false;
    for (std::size_t k = 0; k < kNpp; ++k) {
      local_node_of_elem_[le][k] = node_index.at(ids[k]);
      double mass = 0.0;
      for (const auto& [e, ek] : mesh.node_elems(ids[k])) {
        mass += mesh.geom(e).mass[static_cast<std::size_t>(ek)];
        shared = shared || part.owner(e) != rank;
      }
      elem_rmass_[le][k] = 1.0 / mass;
    }
    (shared ? boundary_ : interior_).push_back(static_cast<int>(le));
  }

  // Neighbours in plan order; their message buffers follow one another.
  for (const auto& nb : plan.per_rank[static_cast<std::size_t>(rank)]) {
    Neighbor n{nb.rank, {}, plan_nodes_};
    n.local_nodes.reserve(nb.nodes.size());
    for (int gnode : nb.nodes) n.local_nodes.push_back(node_index.at(gnode));
    plan_nodes_ += n.local_nodes.size();
    neighbors_.push_back(std::move(n));
  }
  sends_.reserve(neighbors_.size());
}

template <typename Accumulate>
void BndryExchange::assemble(net::Rank& r, double* const* acc, int ncomp,
                             int nlev, std::span<double> msg, Mode mode,
                             Accumulate&& accumulate) {
  last_copy_bytes_ = 0;
  last_msg_bytes_ = 0;
  const int tag = 101;
  const std::size_t row = static_cast<std::size_t>(nlev);
  const std::size_t per_node = static_cast<std::size_t>(ncomp) * row;
  // Neighbour nb's message: each component's partial sums at the shared
  // nodes, component-major; the receiver adds them back in the same
  // (component, node, level) order.
  auto send_buf = [&](const Neighbor& nb) {
    return msg.subspan(nb.first * per_node, nb.local_nodes.size() * per_node);
  };
  auto recv_buf = [&](const Neighbor& nb) {
    return msg.subspan((plan_nodes_ + nb.first) * per_node,
                       nb.local_nodes.size() * per_node);
  };

  auto pack_neighbor = [&](const Neighbor& nb) {
    double* out = send_buf(nb).data();
    for (int c = 0; c < ncomp; ++c) {
      for (int ln : nb.local_nodes) {
        const double* a = acc[c] + static_cast<std::size_t>(ln) * row;
        out = std::copy(a, a + row, out);
      }
    }
    last_copy_bytes_ += send_buf(nb).size_bytes();
  };
  auto unpack = [&](const Neighbor& nb, const double* in) {
    for (int c = 0; c < ncomp; ++c) {
      for (int ln : nb.local_nodes) {
        double* a = acc[c] + static_cast<std::size_t>(ln) * row;
        for (std::size_t lev = 0; lev < row; ++lev) a[lev] += *in++;
      }
    }
  };

  if (mode == Mode::kOriginal) {
    // Pack everything, then communicate, then route received data through
    // the pack buffer once more before it reaches the accumulators (the
    // unified-interface design the paper measures).
    {
      obs::ScopedSpan span(trk_, "bndry:compute");
      accumulate(boundary_);
      accumulate(interior_);
    }
    {
      obs::ScopedSpan span(trk_, "bndry:pack");
      for (const auto& nb : neighbors_) pack_neighbor(nb);
    }
    {
      obs::ScopedSpan span(trk_, "bndry:send");
      for (const auto& nb : neighbors_) {
        r.send(nb.rank, tag, send_buf(nb));
        last_msg_bytes_ += send_buf(nb).size_bytes();
      }
    }
    obs::ScopedSpan wait_span(trk_, "bndry:wait_unpack");
    for (const auto& nb : neighbors_) {
      const std::span<double> in = recv_buf(nb), staged = send_buf(nb);
      r.recv(nb.rank, tag, in);
      // Original data flow: recv buffer -> pack buffer -> elements. The
      // extra staging pass is a real copy into the (already sent) pack
      // buffer.
      std::copy(in.begin(), in.end(), staged.begin());
      last_copy_bytes_ += 2 * staged.size_bytes();
      unpack(nb, staged.data());
    }
  } else {
    // Redesign: boundary elements first, async sends posted before the
    // interior work, receive buffers unpacked directly.
    {
      obs::ScopedSpan span(trk_, "bndry:boundary_compute");
      accumulate(boundary_);
    }
    {
      obs::ScopedSpan span(trk_, "bndry:pack");
      for (const auto& nb : neighbors_) pack_neighbor(nb);
    }
    sends_.clear();
    {
      obs::ScopedSpan span(trk_, "bndry:post_send");
      for (const auto& nb : neighbors_) {
        sends_.push_back(r.isend(nb.rank, tag, send_buf(nb)));
        last_msg_bytes_ += send_buf(nb).size_bytes();
      }
    }
    {
      // Interior computation overlaps the in-flight messages — the
      // section 7.6 window the ablation trace measures.
      obs::ScopedSpan span(trk_, "bndry:inner_compute");
      accumulate(interior_);
    }
    obs::ScopedSpan wait_span(trk_, "bndry:wait_unpack");
    for (const auto& nb : neighbors_) {
      r.recv(nb.rank, tag, recv_buf(nb));
      unpack(nb, recv_buf(nb).data());
    }
    r.wait_all(sends_);
  }
}

void BndryExchange::dss_levels(net::Rank& r, std::span<double* const> fields,
                               int nlev, Mode mode) {
  assert(fields.size() == local_elems_.size());
  const std::size_t acc_n = static_cast<std::size_t>(nlocal_nodes_) *
                            static_cast<std::size_t>(nlev);
  const std::size_t need = dss_scratch(nlev);
  ScratchArena& arena = ScratchArena::thread_local_arena();
  if (arena.capacity() < need) arena.require(need);
  ScratchArena::Frame frame(arena);
  double* const acc = arena.alloc_zero(acc_n).data();
  const std::span<double> msg = arena.alloc(need - acc_n);
  assemble(r, &acc, 1, nlev, msg, mode, [&](const auto& elems) {
    for (int le : elems) {
      const std::size_t sle = static_cast<std::size_t>(le);
      dss_accumulate(local_node_of_elem_[sle].data(),
                     mesh_.geom(local_elems_[sle]).mass.data(), fields[sle],
                     nlev, acc);
    }
  });
  obs::ScopedSpan span(trk_, "bndry:scatter");
  for (std::size_t le = 0; le < local_elems_.size(); ++le) {
    dss_scatter(local_node_of_elem_[le].data(), elem_rmass_[le].data(), acc,
                nlev, fields[le]);
  }
}

void BndryExchange::dss_vector_levels(net::Rank& r,
                                      std::span<double* const> u1,
                                      std::span<double* const> u2, int nlev,
                                      Mode mode) {
  assert(u1.size() == local_elems_.size() && u2.size() == u1.size());
  const std::size_t acc_n = static_cast<std::size_t>(nlocal_nodes_) *
                            static_cast<std::size_t>(nlev);
  const std::size_t need = 3 * dss_scratch(nlev);
  ScratchArena& arena = ScratchArena::thread_local_arena();
  if (arena.capacity() < need) arena.require(need);
  ScratchArena::Frame frame(arena);
  double* const flat = arena.alloc_zero(3 * acc_n).data();
  double* const acc[3] = {flat, flat + acc_n, flat + 2 * acc_n};
  const std::span<double> msg = arena.alloc(need - 3 * acc_n);
  assemble(r, acc, 3, nlev, msg, mode, [&](const auto& elems) {
    for (int le : elems) {
      const std::size_t sle = static_cast<std::size_t>(le);
      const auto& g = mesh_.geom(local_elems_[sle]);
      dss_accumulate_vector(g, local_node_of_elem_[sle].data(), g.mass.data(),
                            u1[sle], u2[sle], nlev, acc);
    }
  });
  obs::ScopedSpan span(trk_, "bndry:scatter");
  for (std::size_t le = 0; le < local_elems_.size(); ++le) {
    dss_scatter_vector(mesh_.geom(local_elems_[le]),
                       local_node_of_elem_[le].data(), elem_rmass_[le].data(),
                       acc, nlev, u1[le], u2[le]);
  }
}

}  // namespace homme
