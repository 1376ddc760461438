// AVX2 batch filters: 4 doubles per vector. Compiled with -mavx2 (set
// per-source in CMakeLists.txt) only when the compiler supports it;
// dispatch only selects these entry points when the CPU reports avx2, so
// no other TU may call them directly.
//
// Written with GCC/Clang vector extensions instead of raw intrinsics; the
// compiler lowers the compares to vcmppd under the TU's -mavx2. Loads go
// through memcpy, so no alignment is assumed. Compaction is branch-free:
// every candidate index is stored, the cursor advances only on a hit —
// identical order and results to the scalar reference, whose primitives
// (kernels_internal.h) also handle the tail elements here.
#if MWSJ_SIMD_HAVE_AVX2

#include <cstring>

#include "simd/kernels_internal.h"

namespace mwsj::simd::internal {
namespace {

constexpr size_t kLanes = 4;

typedef double VecF64 __attribute__((vector_size(kLanes * 8)));
typedef int64_t VecI64 __attribute__((vector_size(kLanes * 8)));

inline VecF64 LoadF64(const double* p) {
  VecF64 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline VecF64 SplatF64(double x) { return VecF64{} + x; }

}  // namespace

size_t OverlapFilterAvx2(const double* min_xs, const double* min_ys,
                         const double* max_xs, const double* max_ys, size_t n,
                         double q_min_x, double q_min_y, double q_max_x,
                         double q_max_y, uint32_t* out) {
  const VecF64 qminx = SplatF64(q_min_x);
  const VecF64 qminy = SplatF64(q_min_y);
  const VecF64 qmaxx = SplatF64(q_max_x);
  const VecF64 qmaxy = SplatF64(q_max_y);
  size_t count = 0;
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const VecF64 bminx = LoadF64(min_xs + i);
    const VecF64 bminy = LoadF64(min_ys + i);
    const VecF64 bmaxx = LoadF64(max_xs + i);
    const VecF64 bmaxy = LoadF64(max_ys + i);
    const VecI64 hit = (bminx <= qmaxx) & (qminx <= bmaxx) &
                       (bminy <= qmaxy) & (qminy <= bmaxy);
    for (size_t lane = 0; lane < kLanes; ++lane) {
      out[count] = static_cast<uint32_t>(i + lane);
      count += hit[lane] ? 1 : 0;
    }
  }
  for (; i < n; ++i) {
    const bool hit = OverlapsScalar(min_xs[i], min_ys[i], max_xs[i],
                                    max_ys[i], q_min_x, q_min_y, q_max_x,
                                    q_max_y);
    out[count] = static_cast<uint32_t>(i);
    count += hit ? 1 : 0;
  }
  return count;
}

size_t WithinFilterAvx2(const double* min_xs, const double* min_ys,
                        const double* max_xs, const double* max_ys, size_t n,
                        double q_min_x, double q_min_y, double q_max_x,
                        double q_max_y, double d_sq, uint32_t* out) {
  const VecF64 qminx = SplatF64(q_min_x);
  const VecF64 qminy = SplatF64(q_min_y);
  const VecF64 qmaxx = SplatF64(q_max_x);
  const VecF64 qmaxy = SplatF64(q_max_y);
  const VecF64 dsq = SplatF64(d_sq);
  const VecF64 zero = SplatF64(0.0);
  size_t count = 0;
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const VecF64 bminx = LoadF64(min_xs + i);
    const VecF64 bminy = LoadF64(min_ys + i);
    const VecF64 bmaxx = LoadF64(max_xs + i);
    const VecF64 bmaxy = LoadF64(max_ys + i);
    // AxisGap as max(query_min - box_max, box_min - query_max, 0): the
    // positive difference wins when the intervals are disjoint, +0.0 when
    // they meet — bitwise the arithmetic of AxisGapScalar.
    const VecF64 gx_lo = qminx - bmaxx;
    const VecF64 gx_hi = bminx - qmaxx;
    VecF64 dx = gx_lo > gx_hi ? gx_lo : gx_hi;
    dx = dx > zero ? dx : zero;
    const VecF64 gy_lo = qminy - bmaxy;
    const VecF64 gy_hi = bminy - qmaxy;
    VecF64 dy = gy_lo > gy_hi ? gy_lo : gy_hi;
    dy = dy > zero ? dy : zero;
    const VecI64 hit = (dx * dx + dy * dy) <= dsq;
    for (size_t lane = 0; lane < kLanes; ++lane) {
      out[count] = static_cast<uint32_t>(i + lane);
      count += hit[lane] ? 1 : 0;
    }
  }
  for (; i < n; ++i) {
    const bool hit = WithinScalar(min_xs[i], min_ys[i], max_xs[i], max_ys[i],
                                  q_min_x, q_min_y, q_max_x, q_max_y, d_sq);
    out[count] = static_cast<uint32_t>(i);
    count += hit ? 1 : 0;
  }
  return count;
}

}  // namespace mwsj::simd::internal

#endif  // MWSJ_SIMD_HAVE_AVX2
