#pragma once

#include <utility>
#include <vector>

#include "mesh/geometry.hpp"

/// \file cubed_sphere.hpp
/// Global cubed-sphere topology: ne x ne x 6 spectral elements with a
/// unique global id for every shared GLL point.
///
/// Connectivity is derived by geometric identification (points from
/// different faces that coincide on the sphere get the same node id), so
/// all twelve cube-edge orientations fall out automatically and direct
/// stiffness summation (DSS) can be expressed as gather/sum/scatter over
/// nodes. Element counts for the paper's configurations are in Table 2:
/// ne64 -> 24,576 elements ... ne4096 -> 100,663,296.

namespace mesh {

class CubedSphere {
 public:
  /// Build the mesh. Cost is O(ne^2); intended for ne up to a few dozen
  /// (the scaling benches use analytic counts, not built meshes).
  static CubedSphere build(int ne, double radius = kEarthRadius);

  int ne() const { return ne_; }
  int nelem() const { return static_cast<int>(geom_.size()); }
  int nnodes() const { return nnodes_; }
  double radius() const { return radius_; }

  const ElementGeom& geom(int elem) const {
    return geom_[static_cast<std::size_t>(elem)];
  }
  /// Global node ids of element \p elem, in gidx order.
  const std::array<int, kNpp>& nodes(int elem) const {
    return nodes_[static_cast<std::size_t>(elem)];
  }
  /// All (element, gll-index) pairs sharing global node \p node.
  const std::vector<std::pair<int, int>>& node_elems(int node) const {
    return node_elems_[static_cast<std::size_t>(node)];
  }

  int elem_id(int face, int ei, int ej) const {
    return (face * ne_ + ej) * ne_ + ei;
  }
  /// (face, ei, ej) of an element id.
  std::array<int, 3> elem_coords(int elem) const {
    return {elem / (ne_ * ne_), elem % ne_, (elem / ne_) % ne_};
  }

  /// Elements sharing at least one edge (>= 2 nodes) with \p elem.
  std::vector<int> edge_neighbors(int elem) const;

  /// Sum of the GLL mass over all elements; equals the sphere area.
  double total_area() const;

 private:
  int ne_ = 0;
  int nnodes_ = 0;
  double radius_ = 0.0;
  std::vector<ElementGeom> geom_;
  std::vector<std::array<int, kNpp>> nodes_;
  std::vector<std::vector<std::pair<int, int>>> node_elems_;
};

/// Elements for a given ne without building the mesh (Table 2 rows).
inline long long elements_for_ne(long long ne) { return 6 * ne * ne; }

}  // namespace mesh
