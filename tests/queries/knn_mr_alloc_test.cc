// Pins the MWSJ_ALLOC_FREE contract of knn_internal::MergeTopK
// (queries/knn_mr.h): after its thread-local scratch reaches the worker's
// high-water candidate count, merging a point allocates nothing. The
// whole-binary operator new replacement below counts every heap
// allocation, the same idiom bench/micro_localjoin.cc uses for
// allocs_per_probe; gtest_discover_tests runs each TEST in its own
// process, so the counter only ever measures this file's probes.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "queries/knn_mr.h"

namespace {
std::atomic<int64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mwsj {
namespace {

// One point's candidate list: `n` pairs with deterministic distances, every
// third pair duplicated as an overlapping-cell copy would produce it
// (identical rect id *and* distance).
std::vector<KnnCandidate> MakeCandidates(int64_t point_id, int n) {
  std::vector<KnnCandidate> out;
  out.reserve(static_cast<size_t>(2 * n));
  for (int i = 0; i < n; ++i) {
    const KnnCandidate c{point_id, int64_t{100} + i,
                         1.0 + 0.25 * static_cast<double>(i % 7)};
    out.push_back(c);
    if (i % 3 == 0) out.push_back(c);
  }
  return out;
}

TEST(KnnMrMergeTopKAllocTest, SteadyStateIsAllocationFree) {
  const int k = 8;
  std::vector<KnnCandidate> warm = MakeCandidates(0, 256);
  std::vector<std::pair<int64_t, int64_t>> rows;
  rows.reserve(static_cast<size_t>(k));
  auto emit = [&rows](int64_t rank, int64_t rect_id) {
    rows.emplace_back(rank, rect_id);
  };

  // Warm the thread-local scratch to its high-water size.
  knn_internal::MergeTopK(std::span<const KnnCandidate>(warm), k, emit);

  // Every later point with a candidate list no larger than the high-water
  // mark must merge without touching the heap — this is what the
  // MWSJ_ALLOC_FREE annotation promises and what a per-call sort buffer
  // (the pre-hoist lambda) would break.
  for (int n : {256, 255, 64, 1}) {
    std::vector<KnnCandidate> values = MakeCandidates(1000 + n, n);
    rows.clear();
    const int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    knn_internal::MergeTopK(std::span<const KnnCandidate>(values), k, emit);
    const int64_t allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(allocs, 0) << "MergeTopK allocated on a warmed scratch (n="
                         << n << ")";
  }
}

TEST(KnnMrMergeTopKAllocTest, MergesDropDuplicatesAndRankByDistance) {
  const std::vector<KnnCandidate> values = {
      {7, 30, 3.0}, {7, 10, 1.0}, {7, 20, 2.0}, {7, 10, 1.0},  // dup pair
      {7, 11, 1.0},  // exact distance tie: rect id breaks it
  };
  std::vector<std::pair<int64_t, int64_t>> rows;
  knn_internal::MergeTopK(std::span<const KnnCandidate>(values), 3,
                          [&rows](int64_t rank, int64_t rect_id) {
                            rows.emplace_back(rank, rect_id);
                          });
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::pair<int64_t, int64_t>{0, 10}));
  EXPECT_EQ(rows[1], (std::pair<int64_t, int64_t>{1, 11}));
  EXPECT_EQ(rows[2], (std::pair<int64_t, int64_t>{2, 20}));
}

TEST(KnnMrMergeTopKAllocTest, TruncatesAtKAfterDeduplication) {
  std::vector<KnnCandidate> values = MakeCandidates(3, 32);
  int emitted = 0;
  int64_t last_rank = -1;
  knn_internal::MergeTopK(std::span<const KnnCandidate>(values), 5,
                          [&](int64_t rank, int64_t rect_id) {
                            EXPECT_EQ(rank, last_rank + 1);
                            EXPECT_GE(rect_id, 100);
                            last_rank = rank;
                            ++emitted;
                          });
  EXPECT_EQ(emitted, 5);
}

}  // namespace
}  // namespace mwsj
