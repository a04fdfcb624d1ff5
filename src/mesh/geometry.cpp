#include "mesh/geometry.hpp"

#include <cmath>

namespace mesh {

namespace {

struct FaceFrame {
  Vec3 c;   ///< face center axis
  Vec3 t1;  ///< alpha tangent
  Vec3 t2;  ///< beta tangent
};

/// Orientation of the six cube faces. Any consistent set works: the
/// topology builder identifies shared points by their coordinates, not by
/// hand-coded edge tables.
constexpr std::array<FaceFrame, 6> kFaces = {{
    {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}},    // +x
    {{0, 1, 0}, {-1, 0, 0}, {0, 0, 1}},   // +y
    {{-1, 0, 0}, {0, -1, 0}, {0, 0, 1}},  // -x
    {{0, -1, 0}, {1, 0, 0}, {0, 0, 1}},   // -y
    {{0, 0, 1}, {0, 1, 0}, {-1, 0, 0}},   // +z
    {{0, 0, -1}, {0, 1, 0}, {1, 0, 0}},   // -z
}};

Vec3 axpy(double a, const Vec3& x, const Vec3& y) {
  return {a * x[0] + y[0], a * x[1] + y[1], a * x[2] + y[2]};
}

}  // namespace

Vec3 face_point(int face, double alpha, double beta, double radius) {
  const FaceFrame& f = kFaces[static_cast<std::size_t>(face)];
  const double u = std::tan(alpha), v = std::tan(beta);
  Vec3 w = axpy(u, f.t1, axpy(v, f.t2, f.c));
  const double n = std::sqrt(dot(w, w));
  return {radius * w[0] / n, radius * w[1] / n, radius * w[2] / n};
}

ElementGeom element_geometry(int face, int ei, int ej, int ne,
                             double radius) {
  const GllBasis& b = gll();
  const FaceFrame& f = kFaces[static_cast<std::size_t>(face)];
  const double dab = (M_PI / 2.0) / ne;          // face-angle width of element
  const double a0 = -M_PI / 4.0 + ei * dab;      // alpha at x = -1
  const double b0 = -M_PI / 4.0 + ej * dab;      // beta at y = -1
  const double dadx = dab / 2.0;                 // d(alpha)/d(ref x)

  ElementGeom g;
  for (int j = 0; j < kNp; ++j) {
    for (int i = 0; i < kNp; ++i) {
      const double alpha = a0 + (b.nodes[static_cast<std::size_t>(i)] + 1.0) * dadx;
      const double beta = b0 + (b.nodes[static_cast<std::size_t>(j)] + 1.0) * dadx;
      const double u = std::tan(alpha), v = std::tan(beta);
      const double seca2 = 1.0 + u * u;  // sec^2(alpha)
      const double secb2 = 1.0 + v * v;

      Vec3 w = axpy(u, f.t1, axpy(v, f.t2, f.c));
      const double n2 = dot(w, w);
      const double n = std::sqrt(n2);
      const int k = gidx(i, j);

      g.pos[k] = {radius * w[0] / n, radius * w[1] / n, radius * w[2] / n};

      // dP/dalpha = R * (w_a / n - w (w . w_a) / n^3), w_a = sec^2(a) t1.
      const double wa_dot_w = seca2 * dot(f.t1, w);
      const double wb_dot_w = secb2 * dot(f.t2, w);
      Vec3 dPda, dPdb;
      for (int d = 0; d < 3; ++d) {
        dPda[d] = radius * (seca2 * f.t1[d] / n - w[d] * wa_dot_w / (n2 * n));
        dPdb[d] = radius * (secb2 * f.t2[d] / n - w[d] * wb_dot_w / (n2 * n));
      }
      // Chain to reference coordinates x, y in [-1, 1].
      Vec3 a1, a2;
      for (int d = 0; d < 3; ++d) {
        a1[d] = dPda[d] * dadx;
        a2[d] = dPdb[d] * dadx;
        g.a1[d][k] = a1[d];
        g.a2[d][k] = a2[d];
      }

      const double g11 = dot(a1, a1);
      const double g12 = dot(a1, a2);
      const double g22 = dot(a2, a2);
      const double det = g11 * g22 - g12 * g12;
      g.g11[k] = g11;
      g.g12[k] = g12;
      g.g22[k] = g22;
      g.jac[k] = std::sqrt(det);
      g.ginv11[k] = g22 / det;
      g.ginv12[k] = -g12 / det;
      g.ginv22[k] = g11 / det;

      // Dual basis: b^i . a_j = delta_ij.
      for (int d = 0; d < 3; ++d) {
        g.b1[d][k] = (g22 * a1[d] - g12 * a2[d]) / det;
        g.b2[d][k] = (g11 * a2[d] - g12 * a1[d]) / det;
      }

      g.lat[k] = std::asin(g.pos[k][2] / radius);
      g.lon[k] = std::atan2(g.pos[k][1], g.pos[k][0]);
      g.coriolis[k] = 2.0 * kOmega * std::sin(g.lat[k]);
      g.mass[k] = b.weights[static_cast<std::size_t>(i)] *
                  b.weights[static_cast<std::size_t>(j)] * g.jac[k];
      g.rmass[k] = 1.0 / g.mass[k];
    }
  }
  // An element's points all lie on one sphere, so every normal divides
  // by the first point's radius.
  const double r = std::sqrt(dot(g.pos[0], g.pos[0]));
  for (int k = 0; k < kNpp; ++k) {
    for (int d = 0; d < 3; ++d) g.rhat[d][k] = g.pos[k][d] / r;
  }
  return g;
}

}  // namespace mesh
