// Distributed kNN join (queries/knn_mr.h) vs. the brute-force oracle and
// the single-node KnnJoin, plus its scheduler / catalog / explain plumbing.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/dataset_catalog.h"
#include "core/explain.h"
#include "core/scheduler.h"
#include "queries/knn_mr.h"
#include "testing/world.h"

namespace mwsj {
namespace {

using testing::KnnOracleTuples;
using testing::KnnSingleNodeTuples;

std::vector<Rect> RandomPointRects(int n, uint64_t seed, double space = 100) {
  Rng rng(seed);
  std::vector<Rect> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(Rect::FromPoint(
        Point{rng.Uniform(0, space), rng.Uniform(0, space)}));
  }
  return out;
}

std::vector<Rect> RandomRects(int n, uint64_t seed, double space = 100) {
  Rng rng(seed);
  std::vector<Rect> out;
  for (int i = 0; i < n; ++i) {
    const double l = rng.Uniform(0, 8);
    const double b = rng.Uniform(0, 8);
    out.push_back(
        Rect::FromXYLB(rng.Uniform(0, space - l), rng.Uniform(b, space), l, b));
  }
  return out;
}

// Brute-force oracle in knn-mr's output encoding (testing/world.h):
// {point, rank, rect} with ranks by (distance, rect id).
TupleBlock OracleTuples(const std::vector<Rect>& points,
                        const std::vector<Rect>& rects, int k) {
  return KnnOracleTuples(points, rects, k);
}

// Single-node KnnJoin (queries/knn.h) re-encoded the same way.
TupleBlock SingleNodeTuples(const std::vector<Rect>& points,
                            const std::vector<Rect>& rects, int k) {
  return KnnSingleNodeTuples(points, rects, k, Rect(0, 0, 100, 100), 4, 4);
}

Query KnnQuery() { return MakeChainQuery(2, Predicate::Overlap()).value(); }

class KnnMrTest : public ::testing::TestWithParam<std::tuple<int, int>> {};
// Params: (k, seed).

TEST_P(KnnMrTest, MatchesOracleAndSingleNode) {
  const int k = std::get<0>(GetParam());
  const uint64_t seed = static_cast<uint64_t>(std::get<1>(GetParam()));
  const std::vector<std::vector<Rect>> data = {
      RandomPointRects(120, seed * 5 + 1), RandomRects(250, seed * 5 + 2)};
  const TupleBlock oracle = OracleTuples(data[0], data[1], k);
  // Single-node and distributed must agree byte-for-byte with the oracle
  // (the (distance, rect id) tie-break makes top-k unique).
  EXPECT_EQ(SingleNodeTuples(data[0], data[1], k), oracle);

  // Several grid geometries, including the degenerate single reducer:
  // the output must not depend on partitioning.
  const int grid_cases[][2] = {{1, 1}, {1, 4}, {3, 3}, {5, 2}};
  for (const auto& grid : grid_cases) {
    RunnerOptions options;
    options.grid_rows = grid[0];
    options.grid_cols = grid[1];
    options.space = Rect(0, 0, 100, 100);
    const auto result = RunKnnJoinMr(KnnQuery(), data, k, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().tuples, oracle)
        << "grid " << grid[0] << "x" << grid[1] << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweeps, KnnMrTest,
                         ::testing::Combine(::testing::Values(1, 3, 8),
                                            ::testing::Range(0, 4)));

TEST(KnnMrEdgeTest, KGreaterThanRectCount) {
  // Every cell is under-populated: round 1 emits unbounded cells, round 2
  // replicates those points everywhere, and every rect is a neighbor.
  const std::vector<std::vector<Rect>> data = {RandomPointRects(30, 9),
                                               RandomRects(5, 10)};
  RunnerOptions options;
  const auto result = RunKnnJoinMr(KnnQuery(), data, 10, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().tuples, OracleTuples(data[0], data[1], 10));
  EXPECT_EQ(result.value().num_tuples,
            static_cast<int64_t>(data[0].size() * data[1].size()));
}

TEST(KnnMrEdgeTest, DuplicatePointsAndDuplicateRects) {
  // Duplicates at identical distances exercise the (distance, rect id)
  // tie-break: rect 1 and rect 2 are the same rectangle.
  std::vector<Rect> points = RandomPointRects(20, 11);
  points.push_back(points[0]);
  points.push_back(points[0]);
  std::vector<Rect> rects = RandomRects(12, 12);
  rects.push_back(rects[1]);
  const std::vector<std::vector<Rect>> data = {points, rects};
  for (const int k : {1, 3, 12}) {
    RunnerOptions options;
    const auto result = RunKnnJoinMr(KnnQuery(), data, k, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().tuples, OracleTuples(points, rects, k)) << k;
  }
}

TEST(KnnMrEdgeTest, PointsOnRectangleCorners) {
  // Distance-zero ties between several rectangles sharing a corner point.
  const std::vector<Rect> rects = {
      Rect(10, 10, 20, 20), Rect(20, 20, 30, 30), Rect(10, 20, 20, 30),
      Rect(20, 10, 30, 20), Rect(70, 70, 80, 80)};
  const std::vector<Rect> points = {
      Rect::FromPoint(Point{20, 20}),  // Corner of four rects at once.
      Rect::FromPoint(Point{10, 10}), Rect::FromPoint(Point{80, 80}),
      Rect::FromPoint(Point{0, 0})};
  const std::vector<std::vector<Rect>> data = {points, rects};
  for (const int k : {1, 2, 4}) {
    RunnerOptions options;
    options.grid_rows = 3;
    options.grid_cols = 3;
    const auto result = RunKnnJoinMr(KnnQuery(), data, k, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().tuples, OracleTuples(points, rects, k)) << k;
  }
}

TEST(KnnMrEdgeTest, EmptyInputs) {
  RunnerOptions options;
  const auto no_points = RunKnnJoinMr(
      KnnQuery(), {{}, RandomRects(5, 2)}, 3, options);
  ASSERT_TRUE(no_points.ok());
  EXPECT_TRUE(no_points.value().tuples.empty());
  const auto no_rects = RunKnnJoinMr(
      KnnQuery(), {RandomPointRects(4, 3), {}}, 3, options);
  ASSERT_TRUE(no_rects.ok());
  EXPECT_TRUE(no_rects.value().tuples.empty());
}

TEST(KnnMrRejectTest, InvalidArguments) {
  const std::vector<std::vector<Rect>> data = {RandomPointRects(4, 1),
                                               RandomRects(4, 2)};
  RunnerOptions options;
  EXPECT_FALSE(RunKnnJoinMr(KnnQuery(), data, 0, options).ok());
  EXPECT_FALSE(RunKnnJoinMr(KnnQuery(), data, -3, options).ok());
  // 3-relation query / dataset count mismatch.
  const Query chain3 = MakeChainQuery(3, Predicate::Overlap()).value();
  EXPECT_FALSE(RunKnnJoinMr(chain3, data, 2, options).ok());
  // Relation 0 must be degenerate points.
  EXPECT_FALSE(RunKnnJoinMr(KnnQuery(), {data[1], data[1]}, 2, options).ok());
  RunnerOptions count_only = options;
  count_only.count_only = true;
  EXPECT_FALSE(RunKnnJoinMr(KnnQuery(), data, 2, count_only).ok());
  RunnerOptions distinct = options;
  distinct.distinct_ids = true;
  EXPECT_FALSE(RunKnnJoinMr(KnnQuery(), data, 2, distinct).ok());
}

TEST(KnnMrSchedulerTest, ConcurrentSubmissionsThroughScheduler) {
  const std::vector<std::vector<Rect>> data = {RandomPointRects(60, 31),
                                               RandomRects(120, 32)};
  const TupleBlock oracle3 = OracleTuples(data[0], data[1], 3);
  const TupleBlock oracle7 = OracleTuples(data[0], data[1], 7);

  SchedulerOptions sched_options;
  sched_options.max_in_flight = 2;
  JobScheduler scheduler(sched_options);

  JobSpec spec3 = MakeKnnMrJobSpec(KnnQuery(), 3);
  spec3.borrowed_relations = &data;
  JobSpec spec7 = MakeKnnMrJobSpec(KnnQuery(), 7);
  spec7.borrowed_relations = &data;
  auto h3 = scheduler.Submit(std::move(spec3));
  auto h7 = scheduler.Submit(std::move(spec7));
  ASSERT_TRUE(h3.ok());
  ASSERT_TRUE(h7.ok());
  const auto& r3 = h3.value().Wait();
  const auto& r7 = h7.value().Wait();
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  ASSERT_TRUE(r7.ok()) << r7.status().ToString();
  EXPECT_EQ(r3.value().tuples, oracle3);
  EXPECT_EQ(r7.value().tuples, oracle7);
  // Scheduled jobs carry their submission id in the per-job stats.
  for (const JobStats& job : r3.value().stats.jobs) {
    EXPECT_EQ(job.job_id, h3.value().id());
  }
}

TEST(KnnMrCatalogTest, GridAndBoundsArtifactsAreReused) {
  auto catalog = std::make_unique<DatasetCatalog>();
  catalog->PutDataset("points", RandomPointRects(80, 41));
  catalog->PutDataset("rects", RandomRects(200, 42));

  SchedulerOptions sched_options;
  sched_options.catalog = catalog.get();
  sched_options.max_in_flight = 1;
  JobScheduler scheduler(sched_options);

  auto submit = [&] {
    JobSpec spec = MakeKnnMrJobSpec(KnnQuery(), 4);
    spec.dataset_names = {"points", "rects"};
    StatusOr<JobHandle> handle = scheduler.Submit(std::move(spec));
    EXPECT_TRUE(handle.ok());
    return handle.value().Take();
  };
  const StatusOr<JoinRunResult> first = submit();
  const StatusOr<JoinRunResult> second = submit();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first.value().tuples, second.value().tuples);
  EXPECT_FALSE(first.value().tuples.empty());

  // Cold run: 3 jobs (bound, join, merge), all artifact lookups miss.
  ASSERT_EQ(first.value().stats.jobs.size(), 3u);
  EXPECT_EQ(first.value().stats.catalog_hits, 0);
  EXPECT_GT(first.value().stats.catalog_misses, 0);
  // Warm run: the resident grid and per-cell bounds skip round 1.
  ASSERT_EQ(second.value().stats.jobs.size(), 2u);
  EXPECT_GE(second.value().stats.catalog_hits, 2);
  EXPECT_EQ(second.value().stats.jobs[0].job_name, "knn_mr_round2_join");
}

TEST(KnnMrStatsTest, CountersAndExplainReport) {
  const std::vector<std::vector<Rect>> data = {RandomPointRects(150, 51),
                                               RandomRects(900, 52)};
  RunnerOptions options;
  options.grid_rows = 4;
  options.grid_cols = 4;
  const auto result = RunKnnJoinMr(KnnQuery(), data, 3, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  int64_t points = 0;
  int64_t point_copies = 0;
  int64_t candidates = 0;
  for (const JobStats& job : result.value().stats.jobs) {
    const auto get = [&job](const char* name) {
      const auto it = job.user_counters.find(name);
      return it != job.user_counters.end() ? it->second : int64_t{0};
    };
    points += get(kCounterKnnPoints);
    point_copies += get(kCounterKnnPointCopies);
    candidates += get(kCounterKnnCandidates);
  }
  EXPECT_EQ(points, static_cast<int64_t>(data[0].size()));
  EXPECT_GE(point_copies, points);
  // Dense data keeps the bounds tight: nowhere near points x 16 cells.
  EXPECT_LT(point_copies, static_cast<int64_t>(data[0].size()) * 8);
  EXPECT_GE(candidates, result.value().num_tuples);

  const std::string report =
      ExplainRun(KnnQuery(), result.value());
  EXPECT_NE(report.find("knn: replication factor"), std::string::npos);
  EXPECT_NE(report.find("bound tightness"), std::string::npos);
  EXPECT_NE(report.find("knn_mr_round2_join"), std::string::npos);
}

}  // namespace
}  // namespace mwsj
