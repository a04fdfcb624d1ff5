#pragma once

#include <array>

#include "mesh/gll.hpp"

/// \file geometry.hpp
/// Equiangular gnomonic cubed-sphere geometry.
///
/// The computational domain of CAM-SE consists of six cube faces, each
/// subdivided into ne x ne spectral elements (Table 2 of the paper). This
/// file maps elements to the sphere and provides the per-GLL-point metric
/// terms every horizontal operator needs: the covariant/contravariant
/// basis vectors, metric tensor, Jacobian (area element) and GLL mass.
///
/// Velocity is stored in contravariant components per element; because
/// neighbouring faces use different coordinate frames, direct stiffness
/// summation converts vectors to Cartesian 3-space via the covariant
/// basis, assembles, and projects back with the contravariant (dual)
/// basis — a coordinate-free equivalent of HOMME's sphere/contravariant
/// transforms.

namespace mesh {

/// Mean Earth radius, m.
inline constexpr double kEarthRadius = 6.371e6;
/// Earth rotation rate, 1/s.
inline constexpr double kOmega = 7.292e-5;

using Vec3 = std::array<double, 3>;

inline double dot(const Vec3& a, const Vec3& b) {
  return a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
}

/// Flattened GLL index: i runs along the first reference axis (alpha),
/// j along the second (beta).
inline constexpr int gidx(int i, int j) { return j * kNp + i; }
/// GLL points per element.
inline constexpr int kNpp = kNp * kNp;

/// A 3-vector at every GLL point as three component tiles: v[d][k] is
/// component d (x, y, z) at point k.
using VecTiles = std::array<std::array<double, kNpp>, 3>;

/// Metric terms of one element, one entry per GLL point (gidx order).
struct ElementGeom {
  std::array<Vec3, kNpp> pos;   ///< position on the sphere (radius R)
  // The frame is component-major, in the order of accel's packed kA1X..
  // kRhatZ tiles, so the rotations and the Coriolis term load it in
  // vpack lanes (homme::FrameView).
  VecTiles a1;    ///< covariant basis dP/dx
  VecTiles a2;    ///< covariant basis dP/dy
  VecTiles b1;    ///< contravariant (dual) basis
  VecTiles b2;
  VecTiles rhat;  ///< outward unit normal pos / |pos[0]|
  std::array<double, kNpp> jac;     ///< sqrt(det g), area element
  std::array<double, kNpp> ginv11;  ///< inverse metric tensor
  std::array<double, kNpp> ginv12;
  std::array<double, kNpp> ginv22;
  std::array<double, kNpp> g11;     ///< metric tensor
  std::array<double, kNpp> g12;
  std::array<double, kNpp> g22;
  std::array<double, kNpp> lat;
  std::array<double, kNpp> lon;
  std::array<double, kNpp> coriolis;  ///< 2*Omega*sin(lat)
  std::array<double, kNpp> mass;      ///< w_i * w_j * jac
  std::array<double, kNpp> rmass;     ///< 1 / globally assembled mass
};

/// Position on the sphere of radius \p radius for face \p face and
/// equiangular face coordinates alpha, beta in [-pi/4, pi/4].
Vec3 face_point(int face, double alpha, double beta, double radius);

/// Build the metric terms of element (face, ei, ej) on an ne x ne x 6
/// cubed sphere of radius \p radius. rmass is initialized to 1/mass and
/// must be fixed up by global assembly (CubedSphere::build does this).
ElementGeom element_geometry(int face, int ei, int ej, int ne,
                             double radius);

}  // namespace mesh
