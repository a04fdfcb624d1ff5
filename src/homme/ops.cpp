#include "homme/ops.hpp"

#include <cassert>

#include "homme/vpack.hpp"
#include "mesh/gll.hpp"

namespace homme {

using mesh::gidx;
using mesh::kNp;
using mesh::kNpp;

// The four GLL operators below walk a tile row by row: for each row j,
// vpack lanes run over i. They are the vectorized forms of the scalar
// loops frozen in ref_kernels.cpp. Each lane performs exactly the scalar
// op sequence (every constant below is the left-to-right product the
// scalar loop evaluates, and every sum starts from 0.0 and runs in the
// same m order), so the rewrite changes data movement, not arithmetic.

namespace {

static_assert(kNp % vpack::width == 0, "vpack width must divide kNp");
/// Packs per tile row.
constexpr int kRowPacks = kNp / vpack::width;

/// Operator constants, built once from mesh::gll(). The last index of
/// DT, WK1, WK2 and WW runs over i, so their rows load as packs; D's
/// entries are broadcast.
struct OpTables {
  double D[kNp][kNp];         ///< the collocation derivative matrix
  double DT[kNp][kNp];        ///< DT[m][i] = D[i][m] (column m of D)
  double WK1[kNp][kNp][kNp];  ///< WK1[j][m][i] = (D[m][i] * w[m]) * w[j]
  double WK2[kNp][kNp][kNp];  ///< WK2[j][m][i] = (D[m][j] * w[i]) * w[m]
  double WW[kNp][kNp];        ///< WW[j][i] = w[i] * w[j]
};

OpTables build_tables() {
  const auto& D = mesh::gll().deriv;
  const auto& w = mesh::gll().weights;
  OpTables t;
  for (int j = 0; j < kNp; ++j) {
    for (int i = 0; i < kNp; ++i) {
      t.D[j][i] = D[j][i];
      t.DT[j][i] = D[i][j];
      t.WW[j][i] = w[i] * w[j];
      for (int m = 0; m < kNp; ++m) {
        t.WK1[j][m][i] = D[m][i] * w[m] * w[j];
        t.WK2[j][m][i] = D[m][j] * w[i] * w[m];
      }
    }
  }
  return t;
}

const OpTables& tables() {
  static const OpTables t = build_tables();
  return t;
}

/// The two reference derivatives dx(i,j) = sum_m D[i][m] a(m,j) and
/// dy(i,j) = sum_m D[j][m] b(i,m) of a tile pair, row by row.
void tile_derivs(const double* a, const double* b, double* dx, double* dy) {
  const OpTables& t = tables();
  for (int j = 0; j < kNp; ++j) {
    for (int p = 0; p < kRowPacks; ++p) {
      const int i0 = p * vpack::width;
      vpack x = vpack::zero(), y = vpack::zero();
      for (int m = 0; m < kNp; ++m) {
        x += vpack::load(&t.DT[m][i0]) * a[gidx(m, j)];
        y += t.D[j][m] * vpack::load(b + gidx(i0, m));
      }
      x.store(dx + gidx(i0, j));
      y.store(dy + gidx(i0, j));
    }
  }
}

}  // namespace

MetricView::MetricView(const double* tiles, int ntiles) {
  const double** slots[] = {&jac, &ginv11, &ginv12, &ginv22,
                            &g11, &g12,    &g22};
  assert(ntiles >= 0 && ntiles <= 7);
  for (int t = 0; t < ntiles; ++t) *slots[t] = tiles + t * kNpp;
}

void deriv_ref(const double* s, double* d1, double* d2) {
  tile_derivs(s, s, d1, d2);
}

void gradient_covariant(const double* s, double* d1, double* d2) {
  deriv_ref(s, d1, d2);
}

void gradient_sphere(const MetricView& g, const double* s, double* g1,
                     double* g2) {
  double d1[kNpp], d2[kNpp];
  deriv_ref(s, d1, d2);
  for (int k = 0; k < kNpp; ++k) {
    g1[k] = g.ginv11[k] * d1[k] + g.ginv12[k] * d2[k];
    g2[k] = g.ginv12[k] * d1[k] + g.ginv22[k] * d2[k];
  }
}

void divergence_sphere(const MetricView& g, const double* u1,
                       const double* u2, double* div) {
  double ju1[kNpp], ju2[kNpp], dx[kNpp], dy[kNpp];
  for (int p = 0; p < kTilePacks; ++p) {
    const int k = p * vpack::width;
    const vpack jac = vpack::load(g.jac + k);
    (jac * vpack::load(u1 + k)).store(ju1 + k);
    (jac * vpack::load(u2 + k)).store(ju2 + k);
  }
  tile_derivs(ju1, ju2, dx, dy);
  for (int p = 0; p < kTilePacks; ++p) {
    const int k = p * vpack::width;
    ((vpack::load(dx + k) + vpack::load(dy + k)) / vpack::load(g.jac + k))
        .store(div + k);
  }
}

void vorticity_sphere(const MetricView& g, const double* u1,
                      const double* u2, double* vort) {
  // Covariant components: cov_i = g_ij u^j.
  double cov1[kNpp], cov2[kNpp], dx[kNpp], dy[kNpp];
  for (int p = 0; p < kTilePacks; ++p) {
    const int k = p * vpack::width;
    const vpack vu1 = vpack::load(u1 + k), vu2 = vpack::load(u2 + k);
    const vpack g12 = vpack::load(g.g12 + k);
    (vpack::load(g.g11 + k) * vu1 + g12 * vu2).store(cov1 + k);
    (g12 * vu1 + vpack::load(g.g22 + k) * vu2).store(cov2 + k);
  }
  tile_derivs(cov2, cov1, dx, dy);
  for (int p = 0; p < kTilePacks; ++p) {
    const int k = p * vpack::width;
    ((vpack::load(dx + k) - vpack::load(dy + k)) / vpack::load(g.jac + k))
        .store(vort + k);
  }
}

void laplace_sphere_wk(const MetricView& g, const double* s, double* lap) {
  const OpTables& t = tables();
  // Contravariant flux F^a = J g^{ab} ds/dxi_b.
  double d1[kNpp], d2[kNpp], f1[kNpp], f2[kNpp];
  deriv_ref(s, d1, d2);
  for (int p = 0; p < kTilePacks; ++p) {
    const int k = p * vpack::width;
    const vpack jac = vpack::load(g.jac + k);
    const vpack vd1 = vpack::load(d1 + k), vd2 = vpack::load(d2 + k);
    const vpack gi12 = vpack::load(g.ginv12 + k);
    (jac * (vpack::load(g.ginv11 + k) * vd1 + gi12 * vd2)).store(f1 + k);
    (jac * (gi12 * vd1 + vpack::load(g.ginv22 + k) * vd2)).store(f2 + k);
  }
  // Weak divergence: lap(i,j) = -(1/(w_i w_j J)) *
  //   [ sum_m D[m][i] w_m w_j F1(m,j) + sum_m D[m][j] w_i w_m F2(i,m) ].
  for (int j = 0; j < kNp; ++j) {
    for (int p = 0; p < kRowPacks; ++p) {
      const int i0 = p * vpack::width;
      vpack acc = vpack::zero();
      for (int m = 0; m < kNp; ++m) {
        acc += vpack::load(&t.WK1[j][m][i0]) * f1[gidx(m, j)];
        acc += vpack::load(&t.WK2[j][m][i0]) * vpack::load(f2 + gidx(i0, m));
      }
      const int k = gidx(i0, j);
      (-acc / (vpack::load(&t.WW[j][i0]) * vpack::load(g.jac + k)))
          .store(lap + k);
    }
  }
}

// The rotations and the Coriolis term are pointwise, so vpack lanes run
// over the whole tile; each lane keeps the scalar op order of ref's twins.

namespace {

/// Cartesian U = u1 a1 + u2 a2 at the pack of points starting at k.
void to_cart(const FrameView& f, int k, const vpack& u1, const vpack& u2,
             vpack (&u)[3]) {
  for (int d = 0; d < 3; ++d) {
    u[d] = u1 * vpack::load(f.a1[d] + k) + u2 * vpack::load(f.a2[d] + k);
  }
}

/// The contravariant component U . b at the pack of points starting at k.
vpack dot_dual(const double* const (&b)[3], int k, const vpack (&u)[3]) {
  return u[0] * vpack::load(b[0] + k) + u[1] * vpack::load(b[1] + k) +
         u[2] * vpack::load(b[2] + k);
}

}  // namespace

void contra_to_cart(const FrameView& f, const double* u1, const double* u2,
                    double* ux, double* uy, double* uz) {
  for (int p = 0; p < kTilePacks; ++p) {
    const int k = p * vpack::width;
    vpack u[3];
    to_cart(f, k, vpack::load(u1 + k), vpack::load(u2 + k), u);
    u[0].store(ux + k);
    u[1].store(uy + k);
    u[2].store(uz + k);
  }
}

void cart_to_contra(const FrameView& f, const double* ux, const double* uy,
                    const double* uz, double* u1, double* u2) {
  for (int p = 0; p < kTilePacks; ++p) {
    const int k = p * vpack::width;
    const vpack u[3] = {vpack::load(ux + k), vpack::load(uy + k),
                        vpack::load(uz + k)};
    dot_dual(f.b1, k, u).store(u1 + k);
    dot_dual(f.b2, k, u).store(u2 + k);
  }
}

void coriolis_vorticity_term(const FrameView& f, const double* absvort,
                             const double* u1, const double* u2, double* t1,
                             double* t2) {
  for (int p = 0; p < kTilePacks; ++p) {
    const int k = p * vpack::width;
    vpack u[3];
    to_cart(f, k, vpack::load(u1 + k), vpack::load(u2 + k), u);
    const vpack rx = vpack::load(f.rhat[0] + k);
    const vpack ry = vpack::load(f.rhat[1] + k);
    const vpack rz = vpack::load(f.rhat[2] + k);
    const vpack av = vpack::load(absvort + k);
    // r_hat x U scaled by (zeta + f).
    const vpack w[3] = {av * (ry * u[2] - rz * u[1]),
                        av * (rz * u[0] - rx * u[2]),
                        av * (rx * u[1] - ry * u[0])};
    dot_dual(f.b1, k, w).store(t1 + k);
    dot_dual(f.b2, k, w).store(t2 + k);
  }
}

}  // namespace homme
