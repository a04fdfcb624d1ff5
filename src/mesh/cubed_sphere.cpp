#include "mesh/cubed_sphere.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>

namespace mesh {

namespace {

/// Quantized-coordinate key for identifying coincident GLL points. Lookup
/// scans the 27 neighbouring cells so points that straddle a quantization
/// boundary still unify.
struct NodeIndexer {
  double eps;
  std::unordered_map<std::uint64_t, std::vector<std::pair<Vec3, int>>> cells;
  int next_id = 0;

  static std::uint64_t cell_key(std::int64_t x, std::int64_t y,
                                std::int64_t z) {
    std::uint64_t h = 1469598103934665603ull;
    for (std::int64_t v : {x, y, z}) {
      h ^= static_cast<std::uint64_t>(v);
      h *= 1099511628211ull;
    }
    return h;
  }

  int id_of(const Vec3& p) {
    const std::int64_t cx = static_cast<std::int64_t>(std::floor(p[0] / eps));
    const std::int64_t cy = static_cast<std::int64_t>(std::floor(p[1] / eps));
    const std::int64_t cz = static_cast<std::int64_t>(std::floor(p[2] / eps));
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        for (std::int64_t dz = -1; dz <= 1; ++dz) {
          auto it = cells.find(cell_key(cx + dx, cy + dy, cz + dz));
          if (it == cells.end()) continue;
          for (const auto& [q, id] : it->second) {
            const double d2 = (p[0] - q[0]) * (p[0] - q[0]) +
                              (p[1] - q[1]) * (p[1] - q[1]) +
                              (p[2] - q[2]) * (p[2] - q[2]);
            if (d2 < eps * eps) return id;
          }
        }
      }
    }
    const int id = next_id++;
    cells[cell_key(cx, cy, cz)].emplace_back(p, id);
    return id;
  }
};

}  // namespace

CubedSphere CubedSphere::build(int ne, double radius) {
  CubedSphere m;
  m.ne_ = ne;
  m.radius_ = radius;
  const int nelem = 6 * ne * ne;
  m.geom_.reserve(static_cast<std::size_t>(nelem));
  m.nodes_.resize(static_cast<std::size_t>(nelem));

  // Shared points are ~ radius * (pi/2) / (3*ne) apart at minimum; use a
  // far smaller identification tolerance.
  NodeIndexer indexer{radius * 1e-8 / ne, {}, 0};

  for (int face = 0; face < 6; ++face) {
    for (int ej = 0; ej < ne; ++ej) {
      for (int ei = 0; ei < ne; ++ei) {
        const int e = m.elem_id(face, ei, ej);
        ElementGeom g = element_geometry(face, ei, ej, ne, radius);
        for (int k = 0; k < kNpp; ++k) {
          m.nodes_[static_cast<std::size_t>(e)][static_cast<std::size_t>(k)] =
              indexer.id_of(g.pos[static_cast<std::size_t>(k)]);
        }
        m.geom_.push_back(std::move(g));
      }
    }
  }
  m.nnodes_ = indexer.next_id;

  m.node_elems_.resize(static_cast<std::size_t>(m.nnodes_));
  for (int e = 0; e < nelem; ++e) {
    for (int k = 0; k < kNpp; ++k) {
      m.node_elems_[static_cast<std::size_t>(
                        m.nodes_[static_cast<std::size_t>(e)]
                                [static_cast<std::size_t>(k)])]
          .emplace_back(e, k);
    }
  }

  // Fix up rmass with the globally assembled node mass.
  std::vector<double> node_mass(static_cast<std::size_t>(m.nnodes_), 0.0);
  for (int e = 0; e < nelem; ++e) {
    const auto& ids = m.nodes_[static_cast<std::size_t>(e)];
    const auto& g = m.geom_[static_cast<std::size_t>(e)];
    for (int k = 0; k < kNpp; ++k) {
      node_mass[static_cast<std::size_t>(ids[static_cast<std::size_t>(k)])] +=
          g.mass[static_cast<std::size_t>(k)];
    }
  }
  for (int e = 0; e < nelem; ++e) {
    const auto& ids = m.nodes_[static_cast<std::size_t>(e)];
    auto& g = m.geom_[static_cast<std::size_t>(e)];
    for (int k = 0; k < kNpp; ++k) {
      g.rmass[static_cast<std::size_t>(k)] =
          1.0 /
          node_mass[static_cast<std::size_t>(ids[static_cast<std::size_t>(k)])];
    }
  }
  return m;
}

std::vector<int> CubedSphere::edge_neighbors(int elem) const {
  std::unordered_map<int, int> shared;
  for (int k = 0; k < kNpp; ++k) {
    const int node =
        nodes_[static_cast<std::size_t>(elem)][static_cast<std::size_t>(k)];
    for (const auto& [e, idx] : node_elems_[static_cast<std::size_t>(node)]) {
      if (e != elem) shared[e] += 1;
    }
  }
  std::vector<int> out;
  for (const auto& [e, count] : shared) {
    if (count >= 2) out.push_back(e);
  }
  std::sort(out.begin(), out.end());
  return out;
}

double CubedSphere::total_area() const {
  double area = 0.0;
  for (const auto& g : geom_) {
    for (double m : g.mass) area += m;
  }
  return area;
}

}  // namespace mesh
