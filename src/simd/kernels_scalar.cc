// Scalar reference kernels. The AVX2 filters must match these byte-for-byte
// (same matching indices, same order); the parity test suite pins that
// under each ISA. The key/index sort has only this scalar form.
#include <algorithm>
#include <utility>
#include <vector>

#include "simd/kernels_internal.h"
#include "simd/simd.h"

namespace mwsj::simd::internal {

size_t OverlapFilterScalar(const double* min_xs, const double* min_ys,
                           const double* max_xs, const double* max_ys,
                           size_t n, double q_min_x, double q_min_y,
                           double q_max_x, double q_max_y, uint32_t* out) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool hit = OverlapsScalar(min_xs[i], min_ys[i], max_xs[i],
                                    max_ys[i], q_min_x, q_min_y, q_max_x,
                                    q_max_y);
    // Unconditional store + conditional advance: branch-free compaction,
    // ascending index order by construction.
    out[count] = static_cast<uint32_t>(i);
    count += hit ? 1 : 0;
  }
  return count;
}

size_t WithinFilterScalar(const double* min_xs, const double* min_ys,
                          const double* max_xs, const double* max_ys,
                          size_t n, double q_min_x, double q_min_y,
                          double q_max_x, double q_max_y, double d_sq,
                          uint32_t* out) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool hit = WithinScalar(min_xs[i], min_ys[i], max_xs[i], max_ys[i],
                                  q_min_x, q_min_y, q_max_x, q_max_y, d_sq);
    out[count] = static_cast<uint32_t>(i);
    count += hit ? 1 : 0;
  }
  return count;
}

}  // namespace mwsj::simd::internal

namespace mwsj::simd {

void SortKeyIdx(uint64_t* keys, uint32_t* idx, size_t n) {
  // Materialize (key, idx) pairs and let std::sort order them. Composite
  // uniqueness makes the result the one true sorted permutation, so no
  // stability machinery is needed.
  std::vector<std::pair<uint64_t, uint32_t>> pairs(n);
  for (size_t i = 0; i < n; ++i) pairs[i] = {keys[i], idx[i]};
  std::sort(pairs.begin(), pairs.end());
  for (size_t i = 0; i < n; ++i) {
    keys[i] = pairs[i].first;
    idx[i] = pairs[i].second;
  }
}

}  // namespace mwsj::simd
