#ifndef MWSJ_SIMD_SIMD_H_
#define MWSJ_SIMD_SIMD_H_

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace mwsj::simd {

/// Instruction sets the batch filters are compiled for. kScalar is always
/// available and is the reference semantics: the AVX2 variant must produce
/// byte-identical outputs (same indices, same order) on the same inputs, so
/// switching ISAs can never change a join result. A CPU without AVX2 runs
/// the scalar kernels.
enum class Isa {
  kScalar = 0,
  kAvx2 = 1,  // AVX2: 4 doubles per vector.
};

/// Human-readable name ("scalar", "avx2") for logs and benches.
const char* IsaName(Isa isa);

/// True when this build carries the ISA's kernels *and* the CPU executes
/// them. kScalar is always true.
bool IsaAvailable(Isa isa);

/// Batch kernels over structure-of-arrays rectangle data. All filters scan
/// boxes i in [0, n), write the indices of matches to `out` (which must
/// hold n entries) in ascending order, and return the match count — the
/// same order a scalar forward loop would visit, so consumers' emit
/// streams do not depend on the active ISA.
///
/// Function pointers, not std::function: the table is resolved once at
/// startup and callers sit on per-probe hot paths (see mwsj_check's
/// hot-path-std-function rule).
struct KernelTable {
  /// Closed-set rectangle overlap against the query box (geometry's
  /// Overlaps: touching edges overlap). NaN coordinates never match —
  /// identical to the scalar comparisons, where NaN fails every `<=`.
  size_t (*overlap_filter)(const double* min_xs, const double* min_ys,
                           const double* max_xs, const double* max_ys,
                           size_t n, double q_min_x, double q_min_y,
                           double q_max_x, double q_max_y, uint32_t* out);

  /// Within-distance via the tie-exact squared comparison: matches boxes
  /// with MinDistanceSquared(box, query) <= d_sq. Callers must only pass a
  /// finite d_sq = d*d with d >= 0; for d large enough that d*d overflows
  /// (e.g. kNN's unbounded +inf probe) take a scalar MinDistance path
  /// instead — inf <= inf would overclaim here.
  size_t (*within_filter)(const double* min_xs, const double* min_ys,
                          const double* max_xs, const double* max_ys,
                          size_t n, double q_min_x, double q_min_y,
                          double q_max_x, double q_max_y, double d_sq,
                          uint32_t* out);

  Isa isa = Isa::kScalar;
};

/// The table for a specific ISA. Precondition: IsaAvailable(isa).
const KernelTable& KernelsFor(Isa isa);

/// The process-wide active table, fixed on first use from the build and
/// the CPU: AVX2 when both carry it, else scalar. Nothing overrides it; a
/// scalar-only build (MWSJ_COMPILER_HAS_AVX2=OFF) runs the scalar tier.
const KernelTable& ActiveKernels();

/// The ISA ActiveKernels() dispatches to.
Isa ActiveIsa();

/// Order-preserving widening of an integral key to u64 (sign-biased so
/// signed negatives sort below positives).
template <typename K>
inline uint64_t OrderedKeyFromInt(K k) {
  static_assert(std::is_integral_v<K> && sizeof(K) <= 8);
  if constexpr (std::is_signed_v<K>) {
    return static_cast<uint64_t>(static_cast<int64_t>(k)) ^
           (uint64_t{1} << 63);
  } else {
    return static_cast<uint64_t>(k);
  }
}

/// Sorts the parallel arrays (keys[i], idx[i]) ascending by the composite
/// (key, idx). When idx starts as the position permutation 0..n-1 this is
/// exactly a *stable* sort by key (ties keep arrival order), computed with
/// u64 compares instead of comparator calls. Its caller is the engine's
/// shuffle sort (StableSortIndexByKey below). One scalar implementation:
/// the vectorized-partition variants measured slower than it.
void SortKeyIdx(uint64_t* keys, uint32_t* idx, size_t n);

/// Sorts `*idx` (initially the identity permutation over keys) stably by
/// keys[idx[i]] — a drop-in for
///   std::stable_sort(idx, [&](a, b) { return keys[a] < keys[b]; })
/// Integral keys are widened order-preservingly and sorted by SortKeyIdx;
/// other key types fall back to std::stable_sort.
template <typename K>
void StableSortIndexByKey(const std::vector<K>& keys,
                          std::vector<uint32_t>* idx) {
  if constexpr (std::is_integral_v<K> && sizeof(K) <= 8) {
    const size_t n = idx->size();
    std::vector<uint64_t> widened(n);
    for (size_t i = 0; i < n; ++i) {
      widened[i] = OrderedKeyFromInt(keys[(*idx)[i]]);
    }
    SortKeyIdx(widened.data(), idx->data(), n);
  } else {
    std::stable_sort(
        idx->begin(), idx->end(),
        [&keys](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
  }
}

/// Structure-of-arrays rectangle storage for the batch filters. Owned by
/// the R-tree (its leaf and node mirrors), which fills it once and probes
/// it many times.
struct SoaRects {
  std::vector<double> min_x, min_y, max_x, max_y;

  size_t size() const { return min_x.size(); }
  bool empty() const { return min_x.empty(); }

  void Clear() {
    min_x.clear();
    min_y.clear();
    max_x.clear();
    max_y.clear();
  }

  void Reserve(size_t n) {
    min_x.reserve(n);
    min_y.reserve(n);
    max_x.reserve(n);
    max_y.reserve(n);
  }

  void PushBack(double mnx, double mny, double mxx, double mxy) {
    min_x.push_back(mnx);
    min_y.push_back(mny);
    max_x.push_back(mxx);
    max_y.push_back(mxy);
  }
};

}  // namespace mwsj::simd

#endif  // MWSJ_SIMD_SIMD_H_
