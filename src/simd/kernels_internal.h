#ifndef MWSJ_SIMD_KERNELS_INTERNAL_H_
#define MWSJ_SIMD_KERNELS_INTERNAL_H_

// Per-ISA kernel entry points and the shared scalar primitives. Internal to
// src/simd: dispatch.cc builds the tables from these, and the vector TUs
// reuse the scalar primitives for their tail loops so a tail element takes
// the exact same arithmetic as the scalar reference kernel.

#include <cstddef>
#include <cstdint>

namespace mwsj::simd::internal {

// ---------------------------------------------------------------------------
// Shared scalar primitives. These mirror geometry/rect.cc bit-for-bit:
// AxisGap as max(b_lo - a_hi, a_lo - b_hi, 0) equals the branchy original
// (the positive difference wins when disjoint, +0.0 when overlapping), and
// the squared form rounds identically to MinDistanceSquared.

inline bool OverlapsScalar(double b_min_x, double b_min_y, double b_max_x,
                           double b_max_y, double q_min_x, double q_min_y,
                           double q_max_x, double q_max_y) {
  return b_min_x <= q_max_x && q_min_x <= b_max_x && b_min_y <= q_max_y &&
         q_min_y <= b_max_y;
}

inline double AxisGapScalar(double a_lo, double a_hi, double b_lo,
                            double b_hi) {
  const double lo_gap = b_lo - a_hi;
  const double hi_gap = a_lo - b_hi;
  double gap = lo_gap > hi_gap ? lo_gap : hi_gap;
  if (!(gap > 0.0)) gap = 0.0;
  return gap;
}

inline bool WithinScalar(double b_min_x, double b_min_y, double b_max_x,
                         double b_max_y, double q_min_x, double q_min_y,
                         double q_max_x, double q_max_y, double d_sq) {
  const double dx = AxisGapScalar(b_min_x, b_max_x, q_min_x, q_max_x);
  const double dy = AxisGapScalar(b_min_y, b_max_y, q_min_y, q_max_y);
  return dx * dx + dy * dy <= d_sq;
}

// ---------------------------------------------------------------------------
// Kernel entry points: the scalar reference and, when compiled, AVX2.

size_t OverlapFilterScalar(const double* min_xs, const double* min_ys,
                           const double* max_xs, const double* max_ys,
                           size_t n, double q_min_x, double q_min_y,
                           double q_max_x, double q_max_y, uint32_t* out);
size_t WithinFilterScalar(const double* min_xs, const double* min_ys,
                          const double* max_xs, const double* max_ys,
                          size_t n, double q_min_x, double q_min_y,
                          double q_max_x, double q_max_y, double d_sq,
                          uint32_t* out);

#if MWSJ_HAVE_AVX2
size_t OverlapFilterAvx2(const double* min_xs, const double* min_ys,
                         const double* max_xs, const double* max_ys, size_t n,
                         double q_min_x, double q_min_y, double q_max_x,
                         double q_max_y, uint32_t* out);
size_t WithinFilterAvx2(const double* min_xs, const double* min_ys,
                        const double* max_xs, const double* max_ys, size_t n,
                        double q_min_x, double q_min_y, double q_max_x,
                        double q_max_y, double d_sq, uint32_t* out);
#endif

}  // namespace mwsj::simd::internal

#endif  // MWSJ_SIMD_KERNELS_INTERNAL_H_
