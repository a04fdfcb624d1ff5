#pragma once

#include <cstring>

#include "mesh/geometry.hpp"

/// \file vpack.hpp
/// homme::vpack — a portable packed SIMD vector of doubles, the host-side
/// counterpart of the TinMan KokkosKernels "Vector<...>" pack and the
/// Sunway v4d register type used throughout the accelerator model.
///
/// A level tile of the dycore is kNpp contiguous doubles ([lev][gidx]
/// layout), so every horizontal operator and vertical scan walks tiles of
/// 16; vpack processes them kVpackWidth lanes at a time. On GCC/Clang the
/// lanes are a native vector-extension type (the v4d idiom), so pack
/// arithmetic is a single hardware-width operation per expression: the
/// build targets the build machine's ISA (src/CMakeLists.txt), so on an
/// AVX host a pack is one 256-bit register. Elsewhere the lanes are a
/// fixed-trip-count loop the optimizer vectorizes. Either way *each lane
/// performs exactly the scalar sequence of operations* — no
/// reassociation, no cross-lane reductions — and every build compiles
/// with -ffp-contract=off, so no ISA fuses a*b+c and the packs are
/// bit-identical to the scalar loops they replace on any host.
///
/// Build with -DSWCAM_VPACK_SCALAR to force width 1 (the scalar
/// fallback): same code, same answers, one lane.

namespace homme {

#if defined(SWCAM_VPACK_SCALAR)
inline constexpr int kVpackWidth = 1;
#else
inline constexpr int kVpackWidth = 4;
#endif

#if !defined(SWCAM_VPACK_SCALAR) && (defined(__GNUC__) || defined(__clang__))
#define SWCAM_VPACK_NATIVE 1
#endif

static_assert(mesh::kNpp % kVpackWidth == 0,
              "vpack width must divide the GLL tile size");

/// Packs per level tile (kNpp points).
inline constexpr int kTilePacks = mesh::kNpp / kVpackWidth;

struct vpack {
  static constexpr int width = kVpackWidth;
#if defined(SWCAM_VPACK_NATIVE)
  typedef double lanes
      __attribute__((vector_size(sizeof(double) * kVpackWidth)));
  lanes v;
#else
  double v[kVpackWidth];
#endif

  static vpack load(const double* p) {
    vpack r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
  }
  void store(double* p) const { std::memcpy(p, &v, sizeof(v)); }

  static vpack fill(double x) {
    vpack r;
#if defined(SWCAM_VPACK_NATIVE)
    // A register broadcast (see the scalar operators below). x - (+0.0)
    // is x for every x, -0.0 included; 0.0 + x would turn -0.0 into +0.0.
    r.v = x - lanes{};
#else
    for (int i = 0; i < width; ++i) r.v[i] = x;
#endif
    return r;
  }
  static vpack zero() { return fill(0.0); }

  double operator[](int i) const { return v[i]; }

#if defined(SWCAM_VPACK_NATIVE)
  vpack& operator+=(const vpack& o) {
    v += o.v;
    return *this;
  }
  vpack& operator-=(const vpack& o) {
    v -= o.v;
    return *this;
  }
  vpack& operator*=(const vpack& o) {
    v *= o.v;
    return *this;
  }
  vpack& operator/=(const vpack& o) {
    v /= o.v;
    return *this;
  }
  friend vpack operator-(vpack a) {
    a.v = -a.v;
    return a;
  }
  // Scalar operands go through the vector extension's own scalar form,
  // which compiles to a broadcast hoisted out of the caller's loop. A
  // lane-by-lane fill(s) can be spilled to the stack and reloaded inside
  // the loop instead, paying a failed store-to-load forward on every pack
  // op.
  friend vpack operator*(double s, vpack a) {
    a.v = s * a.v;
    return a;
  }
  friend vpack operator*(vpack a, double s) {
    a.v = a.v * s;
    return a;
  }
  friend vpack operator+(vpack a, double s) {
    a.v = a.v + s;
    return a;
  }
#else
  vpack& operator+=(const vpack& o) {
    for (int i = 0; i < width; ++i) v[i] += o.v[i];
    return *this;
  }
  vpack& operator-=(const vpack& o) {
    for (int i = 0; i < width; ++i) v[i] -= o.v[i];
    return *this;
  }
  vpack& operator*=(const vpack& o) {
    for (int i = 0; i < width; ++i) v[i] *= o.v[i];
    return *this;
  }
  vpack& operator/=(const vpack& o) {
    for (int i = 0; i < width; ++i) v[i] /= o.v[i];
    return *this;
  }
  friend vpack operator-(vpack a) {
    for (int i = 0; i < vpack::width; ++i) a.v[i] = -a.v[i];
    return a;
  }
  friend vpack operator*(double s, vpack a) { return a *= fill(s); }
  friend vpack operator*(vpack a, double s) { return a *= fill(s); }
  friend vpack operator+(vpack a, double s) { return a += fill(s); }
#endif

  friend vpack operator+(vpack a, const vpack& b) { return a += b; }
  friend vpack operator-(vpack a, const vpack& b) { return a -= b; }
  friend vpack operator*(vpack a, const vpack& b) { return a *= b; }
  friend vpack operator/(vpack a, const vpack& b) { return a /= b; }

  /// Transpose a width x width block in place: lane c of pack r moves to
  /// lane r of pack c. Pure data movement, so no value changes. Natively
  /// this is section 7.5's 8-shuffle 4x4 register transpose (pairs of
  /// rows interleave, then pairs of halves swap); at width 1 it is the
  /// identity.
  static void transpose(vpack (&b)[width]) {
#if defined(SWCAM_VPACK_NATIVE)
    static_assert(width == 4, "the native transpose is the 4x4 shuffle");
    const lanes t0 = shuffle<0, 4, 2, 6>(b[0].v, b[1].v);
    const lanes t1 = shuffle<1, 5, 3, 7>(b[0].v, b[1].v);
    const lanes t2 = shuffle<0, 4, 2, 6>(b[2].v, b[3].v);
    const lanes t3 = shuffle<1, 5, 3, 7>(b[2].v, b[3].v);
    b[0].v = shuffle<0, 1, 4, 5>(t0, t2);
    b[1].v = shuffle<0, 1, 4, 5>(t1, t3);
    b[2].v = shuffle<2, 3, 6, 7>(t0, t2);
    b[3].v = shuffle<2, 3, 6, 7>(t1, t3);
#else
    for (int r = 0; r < width; ++r) {
      for (int c = r + 1; c < width; ++c) {
        const double x = b[r].v[c];
        b[r].v[c] = b[c].v[r];
        b[c].v[r] = x;
      }
    }
#endif
  }

#if defined(SWCAM_VPACK_NATIVE)
 private:
  /// Lanes i0..i3 of the eight-lane concatenation (a, b).
  template <int i0, int i1, int i2, int i3>
  static lanes shuffle(lanes a, lanes b) {
#if defined(__clang__)
    return __builtin_shufflevector(a, b, i0, i1, i2, i3);
#else
    typedef long long index
        __attribute__((vector_size(sizeof(long long) * kVpackWidth)));
    return __builtin_shuffle(a, b, index{i0, i1, i2, i3});
#endif
  }
#endif
};

}  // namespace homme
