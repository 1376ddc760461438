// Batch-kernel unit tests: every compiled ISA must reproduce the scalar
// reference byte-for-byte (indices, order, counts, sorted permutations),
// including degenerate rectangles, touching boundaries, exact-distance
// ties, and every tail length around the vector width.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/random.h"
#include "simd/simd.h"
#include "testing/isas.h"

namespace mwsj::simd {
namespace {

using testing::AvailableIsas;

struct FilterCase {
  SoaRects boxes;
  double q_min_x, q_min_y, q_max_x, q_max_y;
  double d = 1.0;
};

FilterCase RandomCase(uint64_t seed, size_t n, bool integer_coords) {
  Rng rng(seed);
  FilterCase fc;
  fc.boxes.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double x = rng.Uniform(-50, 50);
    double y = rng.Uniform(-50, 50);
    double l = rng.Uniform(0, 10);  // Zero-extent rectangles included.
    double b = rng.Uniform(0, 10);
    if (integer_coords) {
      x = std::floor(x);
      y = std::floor(y);
      l = std::floor(l);
      b = std::floor(b);
    }
    fc.boxes.PushBack(x, y, x + l, y + b);
  }
  fc.q_min_x = integer_coords ? std::floor(rng.Uniform(-50, 50))
                              : rng.Uniform(-50, 50);
  fc.q_min_y = integer_coords ? std::floor(rng.Uniform(-50, 50))
                              : rng.Uniform(-50, 50);
  fc.q_max_x = fc.q_min_x + (integer_coords ? 8 : rng.Uniform(0, 15));
  fc.q_max_y = fc.q_min_y + (integer_coords ? 8 : rng.Uniform(0, 15));
  fc.d = integer_coords ? 3.0 : rng.Uniform(0, 10);
  return fc;
}

std::vector<uint32_t> RunOverlap(const KernelTable& k, const FilterCase& fc) {
  std::vector<uint32_t> out(fc.boxes.size() + 1, 0xdeadbeef);
  const size_t hits = k.overlap_filter(
      fc.boxes.min_x.data(), fc.boxes.min_y.data(), fc.boxes.max_x.data(),
      fc.boxes.max_y.data(), fc.boxes.size(), fc.q_min_x, fc.q_min_y,
      fc.q_max_x, fc.q_max_y, out.data());
  out.resize(hits);
  return out;
}

std::vector<uint32_t> RunWithin(const KernelTable& k, const FilterCase& fc) {
  std::vector<uint32_t> out(fc.boxes.size() + 1, 0xdeadbeef);
  const size_t hits = k.within_filter(
      fc.boxes.min_x.data(), fc.boxes.min_y.data(), fc.boxes.max_x.data(),
      fc.boxes.max_y.data(), fc.boxes.size(), fc.q_min_x, fc.q_min_y,
      fc.q_max_x, fc.q_max_y, fc.d * fc.d, out.data());
  out.resize(hits);
  return out;
}

TEST(SimdFilterTest, MatchesScalarOnEveryIsaAndTailLength) {
  const auto isas = AvailableIsas();
  // Every length from empty through 17 crosses the 4-lane tail boundary
  // several times; a few larger sizes exercise long runs.
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u,
                   13u, 14u, 15u, 16u, 17u, 100u, 257u}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      for (const bool integer_coords : {false, true}) {
        const FilterCase fc = RandomCase(seed * 977 + n, n, integer_coords);
        const auto overlap_ref = RunOverlap(KernelsFor(Isa::kScalar), fc);
        const auto within_ref = RunWithin(KernelsFor(Isa::kScalar), fc);
        // The scalar forward scan yields ascending matches by construction.
        EXPECT_TRUE(std::is_sorted(overlap_ref.begin(), overlap_ref.end()));
        for (const Isa isa : isas) {
          EXPECT_EQ(RunOverlap(KernelsFor(isa), fc), overlap_ref)
              << "isa=" << IsaName(isa) << " n=" << n << " seed=" << seed;
          EXPECT_EQ(RunWithin(KernelsFor(isa), fc), within_ref)
              << "isa=" << IsaName(isa) << " n=" << n << " seed=" << seed;
        }
      }
    }
  }
}

TEST(SimdFilterTest, TouchingBoundariesAndExactDistanceTies) {
  // Boxes placed exactly on the query edge (closed-set overlap must
  // include them) and exactly at distance d (squared compare must include
  // them; one ulp beyond must not).
  // Query spans [-1, 0] x [0, 1]; boxes anchor their facing edge at 0 or
  // exactly d, so the axis gap is d bit-for-bit (an offset like 1 + d
  // would round the gap away from d).
  const double d = 1.0 / 3.0;
  FilterCase fc;
  fc.q_min_x = -1;
  fc.q_min_y = 0;
  fc.q_max_x = 0;
  fc.q_max_y = 1;
  fc.d = d;
  fc.boxes.PushBack(0, 0, 1, 1);                           // Touching edge.
  fc.boxes.PushBack(d, 0, d + 1, 1);                       // Gap exactly d.
  fc.boxes.PushBack(std::nextafter(d, 8.0), 0, 3, 1);      // One ulp beyond.
  fc.boxes.PushBack(-0.5, 0.5, -0.5, 0.5);  // Degenerate point inside.
  fc.boxes.PushBack(-9, -9, -8, -8);        // Far miss.
  const auto overlap = RunOverlap(KernelsFor(Isa::kScalar), fc);
  EXPECT_EQ(overlap, (std::vector<uint32_t>{0, 3}));
  const auto within = RunWithin(KernelsFor(Isa::kScalar), fc);
  // The exact tie is in (squared compare), the next double out is not.
  EXPECT_EQ(within, (std::vector<uint32_t>{0, 1, 3}));
  for (const Isa isa : AvailableIsas()) {
    EXPECT_EQ(RunOverlap(KernelsFor(isa), fc), overlap) << IsaName(isa);
    EXPECT_EQ(RunWithin(KernelsFor(isa), fc), within) << IsaName(isa);
  }
  // d = 0 degenerates to closed-set overlap.
  fc.d = 0;
  for (const Isa isa : AvailableIsas()) {
    EXPECT_EQ(RunWithin(KernelsFor(isa), fc), overlap) << IsaName(isa);
  }
}

TEST(SimdFilterTest, NaNCoordinatesMirrorTheScalarGeometry) {
  // Ingest rejects NaN, but the kernels' contract with the geometry layer
  // is still pinned, on every ISA. Overlap: a NaN coordinate fails every
  // <= (like Overlaps), so NaN boxes never overlap. Within: AxisGap's
  // comparisons are all false for NaN, so a NaN gap collapses to 0 — the
  // kernels reproduce MinDistanceSquared's behavior rather than invent a
  // stricter one.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  FilterCase fc;
  fc.q_min_x = -10;
  fc.q_min_y = -10;
  fc.q_max_x = 10;
  fc.q_max_y = 10;
  fc.d = 5;
  fc.boxes.PushBack(0, 0, 1, 1);
  fc.boxes.PushBack(nan, 0, 1, 1);
  fc.boxes.PushBack(0, nan, 1, nan);
  fc.boxes.PushBack(2, 2, 3, 3);
  for (const Isa isa : AvailableIsas()) {
    EXPECT_EQ(RunOverlap(KernelsFor(isa), fc),
              (std::vector<uint32_t>{0, 3}))
        << IsaName(isa);
    EXPECT_EQ(RunWithin(KernelsFor(isa), fc),
              (std::vector<uint32_t>{0, 1, 2, 3}))
        << IsaName(isa);
  }
}

// ---------------------------------------------------------------------------
// Key/index sort.

void CheckSortAgainstStableSort(const std::vector<uint64_t>& keys) {
  const size_t n = keys.size();
  std::vector<uint32_t> expected(n);
  for (size_t i = 0; i < n; ++i) expected[i] = static_cast<uint32_t>(i);
  std::stable_sort(expected.begin(), expected.end(),
                   [&keys](uint32_t a, uint32_t b) {
                     return keys[a] < keys[b];
                   });
  std::vector<uint64_t> k = keys;
  std::vector<uint32_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = static_cast<uint32_t>(i);
  SortKeyIdx(k.data(), idx.data(), n);
  EXPECT_EQ(idx, expected) << "n=" << n;
  std::vector<uint64_t> sorted_keys = keys;
  std::sort(sorted_keys.begin(), sorted_keys.end());
  EXPECT_EQ(k, sorted_keys) << "n=" << n;
}

TEST(SimdSortTest, EqualsStableSortByKey) {
  // Sizes from empty through small to several thousand;
  // key ranges force heavy duplication so the idx tie-break does real work.
  for (size_t n : {0u, 1u, 2u, 3u, 31u, 32u, 33u, 64u, 100u, 1000u, 4096u}) {
    for (const uint64_t range : {uint64_t{1}, uint64_t{4}, uint64_t{1000},
                                 std::numeric_limits<uint64_t>::max()}) {
      Rng rng(n * 1315423911u + range);
      std::vector<uint64_t> keys(n);
      for (auto& k : keys) {
        k = range == std::numeric_limits<uint64_t>::max()
                ? rng.Next()
                : rng.Next() % range;
      }
      CheckSortAgainstStableSort(keys);
    }
  }
}

TEST(SimdSortTest, AdversarialPatterns) {
  std::vector<uint64_t> sorted(1000), reversed(1000), organ(1000);
  for (size_t i = 0; i < 1000; ++i) {
    sorted[i] = i;
    reversed[i] = 1000 - i;
    organ[i] = std::min(i, 1000 - i);  // Organ-pipe.
  }
  CheckSortAgainstStableSort(sorted);
  CheckSortAgainstStableSort(reversed);
  CheckSortAgainstStableSort(organ);
  CheckSortAgainstStableSort(std::vector<uint64_t>(1000, 42));  // All equal.
}

// ---------------------------------------------------------------------------
// Key encodings and dispatch plumbing.

TEST(OrderedKeyTest, PreservesIntegerOrdering) {
  const std::vector<int64_t> ascending = {
      std::numeric_limits<int64_t>::min(), -1000000, -1, 0, 1, 1000000,
      std::numeric_limits<int64_t>::max()};
  for (size_t i = 0; i + 1 < ascending.size(); ++i) {
    EXPECT_LT(OrderedKeyFromInt(ascending[i]),
              OrderedKeyFromInt(ascending[i + 1]));
  }
  EXPECT_LT(OrderedKeyFromInt(int32_t{-5}), OrderedKeyFromInt(int32_t{3}));
  EXPECT_LT(OrderedKeyFromInt(uint32_t{3}), OrderedKeyFromInt(uint32_t{5}));
}

TEST(SimdDispatchTest, IsaNamesAndTables) {
  EXPECT_STREQ(IsaName(Isa::kScalar), "scalar");
  EXPECT_STREQ(IsaName(Isa::kAvx2), "avx2");
  for (const Isa isa : AvailableIsas()) EXPECT_EQ(KernelsFor(isa).isa, isa);
}

// The active table is the best tier the build and the CPU both carry.
TEST(SimdDispatchTest, ActiveTableIsTheBestAvailableIsa) {
  const Isa best = AvailableIsas().back();
  EXPECT_EQ(ActiveIsa(), best);
  EXPECT_EQ(&ActiveKernels(), &KernelsFor(best));
}

TEST(SimdDispatchTest, ScalarAlwaysAvailable) {
  EXPECT_TRUE(IsaAvailable(Isa::kScalar));
  EXPECT_NE(ActiveKernels().overlap_filter, nullptr);
  EXPECT_NE(ActiveKernels().within_filter, nullptr);
}

}  // namespace
}  // namespace mwsj::simd
