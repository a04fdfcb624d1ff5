#include "homme/bndry.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <numeric>
#include <unordered_map>

#include "homme/dss.hpp"
#include "homme/scratch.hpp"
#include "homme/vpack.hpp"

namespace homme {

using mesh::kNpp;

namespace {

/// One rank owning the whole mesh in mesh order.
mesh::Partition whole_mesh(const mesh::CubedSphere& m) {
  mesh::Partition p;
  p.nranks = 1;
  p.elem_rank.assign(static_cast<std::size_t>(m.nelem()), 0);
  p.rank_elems.emplace_back(static_cast<std::size_t>(m.nelem()));
  std::iota(p.rank_elems[0].begin(), p.rank_elems[0].end(), 0);
  return p;
}

/// The comm plan of one rank: no neighbours.
mesh::CommPlan no_neighbours() {
  mesh::CommPlan plan;
  plan.per_rank.resize(1);
  return plan;
}

}  // namespace

BndryExchange::BndryExchange(const mesh::CubedSphere& mesh)
    : BndryExchange(mesh, whole_mesh(mesh), no_neighbours(), 0) {}

BndryExchange::BndryExchange(const mesh::CubedSphere& mesh,
                             const mesh::Partition& part,
                             const mesh::CommPlan& plan, int rank)
    : mesh_(mesh),
      local_elems_(part.rank_elems[static_cast<std::size_t>(rank)]) {
  // Dense local node numbering over every node touched by local elements
  // (over the whole mesh in mesh order it is the mesh's own numbering).
  std::unordered_map<int, int> node_index, local_of;
  local_node_of_elem_.resize(local_elems_.size());
  for (std::size_t le = 0; le < local_elems_.size(); ++le) {
    local_of.emplace(local_elems_[le], static_cast<int>(le));
    const auto& ids = mesh.nodes(local_elems_[le]);
    for (std::size_t k = 0; k < kNpp; ++k) {
      const auto [it, fresh] = node_index.emplace(ids[k], nlocal_nodes_);
      if (fresh) ++nlocal_nodes_;
      local_node_of_elem_[le][k] = it->second;
    }
  }
  order_.resize(local_elems_.size());
  std::iota(order_.begin(), order_.end(), 0);
  auto ascending = [&](int a, int b) {
    return global_elem(a) < global_elem(b);
  };
  std::sort(order_.begin(), order_.end(), ascending);

  // Rows, neighbour by neighbour in plan order: at each shared node in
  // ascending order, the sending rank's elements at that node in
  // ascending order (node_elems lists them so). Both sides walk the same
  // node list, so a message's rows line up without a handshake. Each row
  // is recorded under its (local node, element); a receive row is
  // numbered within the receive area until the send rows are counted. A
  // local element at a node several neighbours share has a send row in
  // each message, all equal; the first serves.
  std::map<std::pair<int, int>, std::pair<bool, std::size_t>> node_rows;
  std::unordered_map<int, std::size_t> body_of;  // per neighbour: le -> body
  for (const auto& nb : plan.per_rank[static_cast<std::size_t>(rank)]) {
    Neighbor out{nb.rank, send_rows_, 0, recv_rows_, 0};
    body_of.clear();
    for (int gnode : nb.nodes) {
      const int ln = node_index.at(gnode);
      for (const auto& [e, ek] : mesh.node_elems(gnode)) {
        if (part.owner(e) == rank) {
          const auto [it, fresh] =
              body_of.emplace(local_of.at(e), send_bodies_.size());
          if (fresh) {
            send_bodies_.push_back({it->first, {}});
            send_bodies_.back().ids.fill(-1);
          }
          send_bodies_[it->second].ids[static_cast<std::size_t>(ek)] =
              static_cast<int>(send_rows_);
          node_rows.try_emplace({ln, e}, false, send_rows_++);
        } else if (part.owner(e) == nb.rank) {
          node_rows.try_emplace({ln, e}, true, recv_rows_++);
        }
      }
    }
    out.send_rows = send_rows_ - out.send_first;
    out.recv_rows = recv_rows_ - out.recv_first;
    neighbors_.push_back(out);
  }

  // One block of rows: the send rows, the discard row, the receive rows.
  const int discard = static_cast<int>(send_rows_);
  for (SendBody& b : send_bodies_) {
    std::replace(b.ids.begin(), b.ids.end(), -1, discard);
    boundary_.push_back(b.le);
  }
  for (Neighbor& nb : neighbors_) nb.recv_first += send_rows_ + 1;
  std::sort(boundary_.begin(), boundary_.end(), ascending);
  boundary_.erase(std::unique(boundary_.begin(), boundary_.end()),
                  boundary_.end());

  // The plan: each shared node's rows, ascending element id (the map's
  // order within a node).
  for (const auto& [key, row] : node_rows) {
    if (shared_nodes_.empty() || shared_nodes_.back() != key.first) {
      shared_nodes_.push_back(key.first);
      shared_first_.push_back(static_cast<int>(shared_rows_.size()));
    }
    const auto& [recv, index] = row;
    shared_rows_.push_back(
        static_cast<int>(recv ? send_rows_ + 1 + index : index));
  }
  shared_first_.push_back(static_cast<int>(shared_rows_.size()));
}

void BndryExchange::sum_shared(const double* rows, std::size_t rowlen,
                               double* acc) const {
  constexpr std::size_t kW = vpack::width;
  for (std::size_t i = 0; i < shared_nodes_.size(); ++i) {
    const int* first = shared_rows_.data() + shared_first_[i];
    const int* last = shared_rows_.data() + shared_first_[i + 1];
    double* a = acc + static_cast<std::size_t>(shared_nodes_[i]) * rowlen;
    std::size_t l = 0;
    for (; l + kW <= rowlen; l += kW) {
      vpack s = vpack::zero();
      for (const int* p = first; p != last; ++p) {
        s += vpack::load(rows + static_cast<std::size_t>(*p) * rowlen + l);
      }
      s.store(a + l);
    }
    for (; l < rowlen; ++l) {
      double s = 0.0;
      for (const int* p = first; p != last; ++p) {
        s += rows[static_cast<std::size_t>(*p) * rowlen + l];
      }
      a[l] = s;
    }
  }
}

template <typename Body, typename Scatter>
void BndryExchange::assemble(net::Rank* r, std::size_t rowlen, Mode mode,
                             Body&& body, Scatter&& scatter) {
  assert(r != nullptr || neighbors_.empty());
  ScratchArena& arena = ScratchArena::thread_local_arena();
  ScratchArena::Frame frame(arena);
  double* const acc =
      arena.alloc_zero(static_cast<std::size_t>(nlocal_nodes_) * rowlen)
          .data();
  double* const rows =
      arena.alloc((send_rows_ + 1 + recv_rows_) * rowlen).data();
  double* const staged = arena.alloc(recv_rows_ * rowlen).data();
  auto block = [rowlen](double* base, std::size_t first, std::size_t n) {
    return std::span<double>(base + first * rowlen, n * rowlen);
  };
  const int tag = 101;
  last_copy_bytes_ = 0;
  last_msg_bytes_ = 0;

  // The boundary bodies write every send row into zeroed rows: the pack.
  auto pack = [&] {
    obs::ScopedSpan span(trk_, "bndry:pack");
    std::fill(rows, rows + (send_rows_ + 1) * rowlen, 0.0);
    for (const SendBody& b : send_bodies_) body(b.le, b.ids.data(), rows);
    last_copy_bytes_ += send_rows_ * rowlen * sizeof(double);
  };
  auto accumulate = [&] {
    for (int le : order_) {
      body(le, local_node_of_elem_[static_cast<std::size_t>(le)].data(), acc);
    }
  };

  if (mode == Mode::kOriginal) {
    // Compute everything, pack, then communicate; received data passes
    // through a staging buffer before it reaches the rows the plan sums
    // (the unified-interface design the paper measures).
    {
      obs::ScopedSpan span(trk_, "bndry:compute");
      accumulate();
    }
    pack();
    {
      obs::ScopedSpan span(trk_, "bndry:send");
      for (const Neighbor& nb : neighbors_) {
        const std::span<double> out = block(rows, nb.send_first, nb.send_rows);
        r->send(nb.rank, tag, out);
        last_msg_bytes_ += out.size_bytes();
      }
    }
    obs::ScopedSpan wait_span(trk_, "bndry:wait_unpack");
    for (const Neighbor& nb : neighbors_) {
      const std::span<double> in = block(staged, 0, nb.recv_rows);
      r->recv(nb.rank, tag, in);
      std::copy(in.begin(), in.end(), rows + nb.recv_first * rowlen);
      last_copy_bytes_ += 2 * in.size_bytes();
    }
    sum_shared(rows, rowlen, acc);
  } else {
    // Redesign: boundary bodies first, sends posted before the rank's
    // accumulation, messages received straight into the rows. A send is
    // buffered, so it is complete when it returns and needs no wait.
    pack();
    {
      obs::ScopedSpan span(trk_, "bndry:post_send");
      for (const Neighbor& nb : neighbors_) {
        const std::span<double> out = block(rows, nb.send_first, nb.send_rows);
        r->send(nb.rank, tag, out);
        last_msg_bytes_ += out.size_bytes();
      }
    }
    {
      // The accumulation overlaps the in-flight messages — the section
      // 7.6 window the ablation trace measures.
      obs::ScopedSpan span(trk_, "bndry:inner_compute");
      accumulate();
    }
    obs::ScopedSpan wait_span(trk_, "bndry:wait_unpack");
    for (const Neighbor& nb : neighbors_) {
      r->recv(nb.rank, tag, block(rows, nb.recv_first, nb.recv_rows));
    }
    sum_shared(rows, rowlen, acc);
  }
  obs::ScopedSpan span(trk_, "bndry:scatter");
  for (int le = 0; le < nlocal(); ++le) scatter(le, acc);
}

void BndryExchange::dss_levels(std::span<double* const> fields, int nlev,
                               net::Rank* r, Mode mode) {
  assert(fields.size() == local_elems_.size());
  assemble(
      r, static_cast<std::size_t>(nlev), mode,
      [&](int le, const int* ids, double* acc) {
        dss_accumulate(ids, mesh_.geom(global_elem(le)).mass.data(),
                       fields[static_cast<std::size_t>(le)], nlev, acc);
      },
      [&](int le, const double* acc) {
        dss_scatter(local_node_of_elem_[static_cast<std::size_t>(le)].data(),
                    mesh_.geom(global_elem(le)).rmass.data(), acc, nlev,
                    fields[static_cast<std::size_t>(le)]);
      });
}

void BndryExchange::dss_vector_levels(std::span<double* const> u1,
                                      std::span<double* const> u2, int nlev,
                                      net::Rank* r, Mode mode) {
  assert(u1.size() == local_elems_.size() && u2.size() == u1.size());
  assemble(
      r, 3 * static_cast<std::size_t>(nlev), mode,
      [&](int le, const int* ids, double* acc) {
        const auto& g = mesh_.geom(global_elem(le));
        const std::size_t sle = static_cast<std::size_t>(le);
        dss_accumulate_vector(g, ids, g.mass.data(), u1[sle], u2[sle], nlev,
                              acc);
      },
      [&](int le, const double* acc) {
        const auto& g = mesh_.geom(global_elem(le));
        const std::size_t sle = static_cast<std::size_t>(le);
        dss_scatter_vector(g, local_node_of_elem_[sle].data(),
                           g.rmass.data(), acc, nlev, u1[sle], u2[sle]);
      });
}

}  // namespace homme
