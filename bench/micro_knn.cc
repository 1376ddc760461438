// kNN join micro-benchmarks: the distributed knn-mr pipeline
// (queries/knn_mr.h; bound, join and merge: three rounds, two when the
// catalog already holds the round-1 bounds) against the single-node
// three-round KnnJoin (queries/knn.h) on the same data, sweeping k. knn-mr additionally
// reports its point replication factor (round-2 point copies per point) —
// the quantity its round-1 bounds exist to minimize.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "queries/knn.h"
#include "queries/knn_mr.h"

namespace mwsj {
namespace {

std::vector<Rect> MakePointRects(int64_t n, uint64_t seed, double space) {
  Rng rng(seed);
  std::vector<Rect> out;
  out.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    out.push_back(
        Rect::FromPoint(Point{rng.Uniform(0, space), rng.Uniform(0, space)}));
  }
  return out;
}

std::vector<Rect> MakeDataRects(int64_t n, uint64_t seed, double space) {
  Rng rng(seed);
  std::vector<Rect> out;
  out.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const double l = rng.Uniform(0, 8);
    const double b = rng.Uniform(0, 8);
    out.push_back(
        Rect::FromXYLB(rng.Uniform(0, space - l), rng.Uniform(b, space), l, b));
  }
  return out;
}

constexpr double kSpace = 10'000.0;

void BM_KnnJoinMR(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int k = static_cast<int>(state.range(1));
  const std::vector<std::vector<Rect>> relations = {
      MakePointRects(n, 1, kSpace), MakeDataRects(n, 2, kSpace)};
  const Query query = MakeChainQuery(2, Predicate::Overlap()).value();
  ThreadPool pool(0);  // Hardware concurrency.

  RunnerOptions options;
  options.grid_rows = 16;
  options.grid_cols = 16;
  options.space = Rect(0, 0, kSpace, kSpace);
  options.context.pool = &pool;

  int64_t points = 0;
  int64_t point_copies = 0;
  for (auto _ : state) {
    const StatusOr<JoinRunResult> result =
        RunKnnJoinMr(query, relations, k, options);
    benchmark::DoNotOptimize(result.value().num_tuples);
    points = 0;
    point_copies = 0;
    for (const JobStats& job : result.value().stats.jobs) {
      const auto p = job.user_counters.find(kCounterKnnPoints);
      if (p != job.user_counters.end()) points += p->second;
      const auto c = job.user_counters.find(kCounterKnnPointCopies);
      if (c != job.user_counters.end()) point_copies += c->second;
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
  if (points > 0) {
    state.counters["replication"] =
        static_cast<double>(point_copies) / static_cast<double>(points);
  }
}
BENCHMARK(BM_KnnJoinMR)
    ->Args({100'000, 1})
    ->Args({100'000, 10})
    ->Args({100'000, 100})
    ->Args({1'000'000, 1})
    ->Args({1'000'000, 10})
    ->Args({1'000'000, 100})
    ->Unit(benchmark::kMillisecond);

void BM_KnnJoinSingleNode(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int k = static_cast<int>(state.range(1));
  std::vector<Point> points;
  points.reserve(static_cast<size_t>(n));
  {
    Rng rng(1);
    for (int64_t i = 0; i < n; ++i) {
      points.push_back(Point{rng.Uniform(0, kSpace), rng.Uniform(0, kSpace)});
    }
  }
  const std::vector<Rect> rects = MakeDataRects(n, 2, kSpace);
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, kSpace, kSpace), 16, 16).value();
  ThreadPool pool(0);
  ExecutionContext ctx;
  ctx.pool = &pool;

  for (auto _ : state) {
    const StatusOr<KnnResult> result = KnnJoin(grid, points, rects, k, ctx);
    benchmark::DoNotOptimize(result.value().neighbors.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KnnJoinSingleNode)
    ->Args({100'000, 1})
    ->Args({100'000, 10})
    ->Args({100'000, 100})
    ->Args({1'000'000, 1})
    ->Args({1'000'000, 10})
    ->Args({1'000'000, 100})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mwsj

BENCHMARK_MAIN();
