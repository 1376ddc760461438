// Micro-benchmarks for the reducer-side join kernels: STR R-tree build and
// probe, the multiway backtracking join and its factorized count.
//
// This binary replaces the global operator new/delete with counting
// wrappers so probe benchmarks can assert the steady state performs zero
// heap allocations per query (reported as the `allocs_per_*` counters).

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

#include "common/random.h"
#include "localjoin/multiway.h"
#include "localjoin/rtree.h"
#include "query/query.h"

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

std::vector<Rect> MakeRects(int n, uint64_t seed, double space = 10'000,
                            double max_dim = 60) {
  Rng rng(seed);
  std::vector<Rect> rects;
  rects.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double l = rng.Uniform(0, max_dim);
    const double b = rng.Uniform(0, max_dim);
    rects.push_back(
        Rect::FromXYLB(rng.Uniform(0, space - l), rng.Uniform(b, space), l, b));
  }
  return rects;
}

void BM_RTreeBuild(benchmark::State& state) {
  const auto rects = MakeRects(static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    RTree tree(rects);
    benchmark::DoNotOptimize(&tree);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RTreeOverlapProbe(benchmark::State& state) {
  const auto rects = MakeRects(static_cast<int>(state.range(0)), 2);
  const RTree tree(rects);
  const auto probes = MakeRects(512, 3);
  RTree::QueryScratch scratch;
  std::vector<int32_t> out;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    tree.Collect(Predicate::Overlap(), probes[i & 511], &scratch, &out);
    benchmark::DoNotOptimize(out.data());
    ++i;
  }
}
BENCHMARK(BM_RTreeOverlapProbe)->Arg(1000)->Arg(100000);

void BM_RTreeDistanceProbe(benchmark::State& state) {
  const auto rects = MakeRects(static_cast<int>(state.range(0)), 4);
  const RTree tree(rects);
  const auto probes = MakeRects(512, 5);
  RTree::QueryScratch scratch;
  std::vector<int32_t> out;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    tree.Collect(Predicate::Range(100.0), probes[i & 511], &scratch, &out);
    benchmark::DoNotOptimize(out.data());
    ++i;
  }
}
BENCHMARK(BM_RTreeDistanceProbe)->Arg(1000)->Arg(100000);

void BM_RTreeQuery(benchmark::State& state) {
  // Steady-state allocation check for the scratch probe API: after the
  // scratch and output buffers reach their high-water mark, a probe must
  // not touch the heap at all (allocs_per_probe == 0).
  const auto rects = MakeRects(static_cast<int>(state.range(0)), 8);
  const RTree tree(rects);
  const auto probes = MakeRects(512, 9);
  RTree::QueryScratch scratch;
  std::vector<int32_t> out;
  for (size_t i = 0; i < 512; ++i) {  // Warm buffers to high-water mark.
    out.clear();
    tree.Collect(Predicate::Overlap(), probes[i], &scratch, &out);
  }
  int64_t allocs = 0;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    const int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    tree.Collect(Predicate::Overlap(), probes[i & 511], &scratch, &out);
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    benchmark::DoNotOptimize(out.data());
    ++i;
  }
  state.counters["allocs_per_probe"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_RTreeQuery)->Arg(1000)->Arg(100000);

std::vector<std::vector<LocalRect>> MakeChainLocals(int n,
                                                    double space = 10'000) {
  std::vector<std::vector<LocalRect>> locals;
  for (uint64_t r = 0; r < 3; ++r) {
    const auto rects = MakeRects(n, 10 + r, space);
    std::vector<LocalRect> local;
    local.reserve(rects.size());
    for (size_t i = 0; i < rects.size(); ++i) {
      local.push_back(LocalRect{rects[i], static_cast<int64_t>(i)});
    }
    locals.push_back(std::move(local));
  }
  return locals;
}

void BM_MultiwayLocalJoinChain3(benchmark::State& state) {
  // Build + execute per iteration: what one reducer does for one cell.
  const Query query = MakeChainQuery(3, Predicate::Overlap()).value();
  const int n = static_cast<int>(state.range(0));
  const auto locals = MakeChainLocals(n);
  for (auto _ : state) {
    std::vector<std::span<const LocalRect>> spans;
    for (const auto& l : locals) spans.emplace_back(l.data(), l.size());
    MultiwayLocalJoin join(query, std::move(spans));
    int64_t tuples = 0;
    join.Execute([&tuples](const std::vector<const LocalRect*>&) {
      ++tuples;
    });
    benchmark::DoNotOptimize(tuples);
  }
  state.SetItemsProcessed(state.iterations() * 3 * n);
}
BENCHMARK(BM_MultiwayLocalJoinChain3)->Arg(1000)->Arg(10000);

// Probe-only: the trees are built once, the backtracking search runs per
// iteration. Also reports steady-state heap allocations per Execute — a
// small constant (the BindScratch vectors), independent of the number of
// probes and emitted tuples, and of the owner window.
void RunExecuteBench(benchmark::State& state,
                     const std::vector<std::vector<LocalRect>>& locals,
                     OwnerWindow window) {
  const Query query = MakeChainQuery(3, Predicate::Overlap()).value();
  std::vector<std::span<const LocalRect>> spans;
  size_t records = 0;
  for (const auto& l : locals) {
    spans.emplace_back(l.data(), l.size());
    records += l.size();
  }
  const MultiwayLocalJoin join(query, std::move(spans), window);
  int64_t tuples = 0;
  join.Execute([&tuples](const std::vector<const LocalRect*>&) { ++tuples; });
  int64_t allocs = 0;
  for (auto _ : state) {
    int64_t count = 0;
    const int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    join.Execute([&count](const std::vector<const LocalRect*>&) { ++count; });
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    benchmark::DoNotOptimize(count);
  }
  state.counters["allocs_per_exec"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  state.counters["tuples"] =
      benchmark::Counter(static_cast<double>(tuples));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records));
}

// Tiny relations, as in the cells of a fine grid: each relation fits one
// R-tree leaf, so a reducer's cost is dominated by building the join, not
// by its probes. Construct + Execute is timed per iteration, and
// allocs_per_exec counts both. The rectangles share a 200 x 200 space so
// the probes hit.
void RunTinyBench(benchmark::State& state, int n) {
  const Query query = MakeChainQuery(3, Predicate::Overlap()).value();
  const auto locals = MakeChainLocals(n, /*space=*/200);
  int64_t tuples = 0;
  int64_t allocs = 0;
  for (auto _ : state) {
    const int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    std::vector<std::span<const LocalRect>> spans;
    for (const auto& l : locals) spans.emplace_back(l.data(), l.size());
    const MultiwayLocalJoin join(query, std::move(spans));
    tuples = 0;
    join.Execute([&tuples](const std::vector<const LocalRect*>&) {
      ++tuples;
    });
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    benchmark::DoNotOptimize(tuples);
  }
  state.counters["allocs_per_exec"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  state.counters["tuples"] = benchmark::Counter(static_cast<double>(tuples));
  state.SetItemsProcessed(state.iterations() * 3 * n);
}

// Arg: rectangles per relation. Below one R-tree leaf (16) the iteration
// includes construction (RunTinyBench); above it the trees are built once.
void BM_MultiwayLocalJoinExecute(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  if (n < 16) {
    RunTinyBench(state, n);
    return;
  }
  RunExecuteBench(state, MakeChainLocals(n), OwnerWindow{});
}
BENCHMARK(BM_MultiwayLocalJoinExecute)->Arg(4)->Arg(7)->Arg(1000)->Arg(10000);

// One join-round cell as a reducer sees it under f1 replication: the
// cell [5000, 6000] x [4000, 5000] holds the rectangles that start in it
// (projected) plus those starting in its left, top and top-left
// neighbours (replicated to their whole fourth quadrant, so not all of
// them reach the cell). Arg 1 selects the cell's owner window (left line
// x = 5000, top line y = 5000) or none; `tuples` then counts the tuples
// the cell owns vs every local tuple, and allocs_per_exec must be the same
// for both.
std::vector<std::vector<LocalRect>> MakeCellLocals(int n) {
  const Rect cell(5000, 4000, 6000, 5000);
  constexpr double kMaxDim = 300;
  std::vector<std::vector<LocalRect>> locals;
  for (uint64_t r = 0; r < 3; ++r) {
    Rng rng(20 + r);
    std::vector<LocalRect> local;
    local.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      const Rect rect = Rect::FromXYLB(
          rng.Uniform(cell.min_x() - cell.length(), cell.max_x()),
          rng.Uniform(cell.min_y(), cell.max_y() + cell.breadth()),
          rng.Uniform(0, kMaxDim), rng.Uniform(0, kMaxDim));
      local.push_back(LocalRect{rect, i});
    }
    locals.push_back(std::move(local));
  }
  return locals;
}

void BM_MultiwayLocalJoinExecuteCell(benchmark::State& state) {
  const OwnerWindow window =
      state.range(1) != 0 ? OwnerWindow{5000, 5000} : OwnerWindow{};
  RunExecuteBench(state, MakeCellLocals(static_cast<int>(state.range(0))),
                  window);
}
BENCHMARK(BM_MultiwayLocalJoinExecuteCell)
    ->Args({400, 0})
    ->Args({400, 1})
    ->Args({1600, 0})
    ->Args({1600, 1});

// The factorized count on the same cells. allocs_per_exec counts the
// once-per-Count vector setup and must not grow with the probes or the
// tuples; count_exec_ratio is Count's time per call over Execute's on the
// same join (Execute timed before the loop, also checking that both
// agree on the tuple count).
void BM_MultiwayLocalJoinCountCell(benchmark::State& state) {
  const OwnerWindow window =
      state.range(1) != 0 ? OwnerWindow{5000, 5000} : OwnerWindow{};
  const auto locals = MakeCellLocals(static_cast<int>(state.range(0)));
  const Query query = MakeChainQuery(3, Predicate::Overlap()).value();
  std::vector<std::span<const LocalRect>> spans;
  size_t records = 0;
  for (const auto& l : locals) {
    spans.emplace_back(l.data(), l.size());
    records += l.size();
  }
  const MultiwayLocalJoin join(query, std::move(spans), window);
  constexpr int kExecuteReps = 5;
  int64_t emitted = 0;
  const auto execute_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kExecuteReps; ++i) {
    join.Execute(
        [&emitted](const std::vector<const LocalRect*>&) { ++emitted; });
  }
  const std::chrono::duration<double> execute_s =
      std::chrono::steady_clock::now() - execute_start;
  int64_t tuples = 0;
  int64_t allocs = 0;
  const auto count_start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    tuples = join.Count();
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    benchmark::DoNotOptimize(tuples);
  }
  const std::chrono::duration<double> count_s =
      std::chrono::steady_clock::now() - count_start;
  if (tuples * kExecuteReps != emitted) {
    state.SkipWithError("Count disagrees with Execute");
    return;
  }
  const double iterations = static_cast<double>(state.iterations());
  state.counters["allocs_per_exec"] =
      benchmark::Counter(static_cast<double>(allocs) / iterations);
  state.counters["tuples"] = benchmark::Counter(static_cast<double>(tuples));
  state.counters["count_exec_ratio"] = benchmark::Counter(
      (count_s.count() / iterations) / (execute_s.count() / kExecuteReps));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records));
}
BENCHMARK(BM_MultiwayLocalJoinCountCell)
    ->Args({400, 0})
    ->Args({400, 1})
    ->Args({1600, 0})
    ->Args({1600, 1});

}  // namespace
}  // namespace mwsj

BENCHMARK_MAIN();
