// Pins the flush-retry allocation contract of spill::EncodeRun
// (mapreduce/spill.h): with the caller-threaded column scratch warmed to
// the largest bucket and the output vector holding its capacity, a
// re-encode — exactly what a flaky-I/O retry or a speculative duplicate
// flush performs — touches the heap zero times, and the re-encoded bytes
// are identical to the first attempt's. Whole-binary allocation counting
// via the replaced operator new, as in bench/micro_localjoin.cc;
// gtest_discover_tests runs each TEST in its own process.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "core/records.h"
#include "gtest/gtest.h"
#include "mapreduce/spill.h"

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

// A sorted bucket of (cell, RelRect) pairs like the ones a budgeted map
// chunk flushes.
std::vector<std::pair<int32_t, RelRect>> MakeBucket(size_t n) {
  std::vector<std::pair<int32_t, RelRect>> pairs;
  pairs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    RelRect r;
    const double x = static_cast<double>(i % 37);
    const double y = static_cast<double>(i % 11);
    r.rect = Rect(x, y, x + 1.5, y + 2.5);
    r.id = static_cast<int64_t>(i);
    r.relation = static_cast<int32_t>(i % 3);
    pairs.emplace_back(static_cast<int32_t>(i / 16), r);
  }
  return pairs;
}

TEST(SpillEncodeRunAllocTest, RetryReencodeIsAllocationFree) {
  static_assert(spill::kEncodable<int32_t, RelRect>);
  const auto pairs = MakeBucket(1000);

  // First attempt: grows the column scratch to the bucket and gives the
  // output vector its capacity.
  std::vector<uint64_t> scratch;
  std::vector<uint8_t> bytes;
  spill::EncodeRun(pairs.data(), pairs.size(), &scratch, &bytes);
  const std::vector<uint8_t> first = bytes;
  ASSERT_FALSE(first.empty());

  // Retry attempts re-encode the same (and then a smaller) intact bucket.
  // With the scratch threaded through — the engine holds one per chunk
  // across flush attempts — no allocation may occur.
  for (size_t n : {pairs.size(), pairs.size() / 2}) {
    bytes.clear();
    const int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    spill::EncodeRun(pairs.data(), n, &scratch, &bytes);
    const int64_t allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(allocs, 0) << "EncodeRun allocated on a warmed scratch (n="
                         << n << ")";
  }

  // The full-bucket retry must be byte-identical to the first attempt:
  // the spill byte-identity contract across flush attempts.
  bytes.clear();
  spill::EncodeRun(pairs.data(), pairs.size(), &scratch, &bytes);
  EXPECT_EQ(bytes, first);
}

TEST(SpillEncodeRunAllocTest, ScratchOverloadMatchesOneShotOverload) {
  const auto pairs = MakeBucket(300);
  std::vector<uint8_t> one_shot;
  spill::EncodeRun(pairs.data(), pairs.size(), &one_shot);

  std::vector<uint64_t> scratch(1, 0);  // Deliberately undersized.
  std::vector<uint8_t> threaded;
  spill::EncodeRun(pairs.data(), pairs.size(), &scratch, &threaded);
  EXPECT_EQ(threaded, one_shot);

  // An oversized scratch (left over from a larger bucket) must not leak
  // stale columns into the frame.
  std::vector<uint64_t> big(64 * 1024, ~uint64_t{0});
  std::vector<uint8_t> from_big;
  spill::EncodeRun(pairs.data(), pairs.size(), &big, &from_big);
  EXPECT_EQ(from_big, one_shot);
}

}  // namespace
}  // namespace mwsj
