// Distributed kNN join (queries/knn_mr.h) vs. the brute-force oracle and
// the single-node KnnJoin, plus its scheduler / catalog / explain plumbing,
// and the round-2 kernel (knn_internal::LocalTopK) vs. the collect-all
// probe it replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/str_format.h"
#include "core/dataset_catalog.h"
#include "core/explain.h"
#include "core/scheduler.h"
#include "grid/transform.h"
#include "localjoin/rtree.h"
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

constexpr double kInf = std::numeric_limits<double>::infinity();

// Round 2's per-point probe as it was before the expanding probe: one
// Range(bound) probe, every hit ranked, the local top k kept. `*hits`, when
// set, receives the entries the probe collected.
std::vector<KnnCandidate> CollectAllTopK(const RTree& tree,
                                         const std::vector<Rect>& rects,
                                         const std::vector<int64_t>& ids,
                                         const Rect& point, int64_t point_id,
                                         double bound, int k,
                                         int64_t* hits = nullptr) {
  RTree::QueryScratch scratch;
  std::vector<int32_t> found;
  tree.Collect(Predicate::Range(bound), point, &scratch, &found);
  if (hits != nullptr) *hits = static_cast<int64_t>(found.size());
  std::vector<KnnCandidate> local;
  for (const int32_t h : found) {
    const size_t i = static_cast<size_t>(h);
    local.push_back(
        KnnCandidate{point_id, ids[i], MinDistance(rects[i], point)});
  }
  const size_t keep = std::min(local.size(), static_cast<size_t>(k));
  std::partial_sort(local.begin(),
                    local.begin() + static_cast<std::ptrdiff_t>(keep),
                    local.end(), knn_internal::CandidateLess);
  local.resize(keep);
  return local;
}

// A cell's rectangles as a round-2 reducer holds them.
struct KernelCell {
  std::vector<Rect> rects;
  std::vector<int64_t> ids;
};

// Runs LocalTopK and the collect-all probe for one point copy and expects
// the same candidate sequence, distances bit for bit. Returns the entries
// LocalTopK collected.
int64_t ExpectSameCandidates(const KernelCell& cell, const Rect& point,
                             double bound, double first_radius, int k,
                             const std::string& where) {
  const RTree tree(cell.rects);
  const std::vector<KnnCandidate> want =
      CollectAllTopK(tree, cell.rects, cell.ids, point, 7, bound, k);
  knn_internal::LocalTopKScratch scratch;
  std::vector<KnnCandidate> got;
  const int64_t collected = knn_internal::LocalTopK(
      tree, cell.rects, cell.ids, point, 7, bound, first_radius, k, &scratch,
      [&got](const KnnCandidate& c) { got.push_back(c); });
  EXPECT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i].point_id, want[i].point_id) << where << " rank " << i;
    EXPECT_EQ(got[i].rect_id, want[i].rect_id) << where << " rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].distance),
              std::bit_cast<uint64_t>(want[i].distance))
        << where << " rank " << i;
  }
  return collected;
}

// Rectangles at exact axis offsets from the origin point: a rectangle
// whose near edge is `d` right of (0, 0) is at MinDistance exactly d.
KernelCell CellAtDistances(const std::vector<double>& distances,
                           const std::vector<int64_t>& ids) {
  KernelCell cell;
  for (size_t i = 0; i < distances.size(); ++i) {
    const double d = distances[i];
    // Alternate sides so ties are not one stacked column.
    cell.rects.push_back(i % 2 == 0 ? Rect(d, -1, d + 1, 1)
                                    : Rect(-1, d, 1, d + 1));
    cell.ids.push_back(ids[i]);
  }
  return cell;
}

const Rect kOrigin = Rect::FromPoint(Point{0, 0});

int64_t CounterSum(const JoinRunResult& result, const char* name) {
  int64_t sum = 0;
  for (const JobStats& job : result.stats.jobs) {
    const auto it = job.user_counters.find(name);
    if (it != job.user_counters.end()) sum += it->second;
  }
  return sum;
}

// knn_candidates as the collect-all probe counts it, from the round-1
// bounds a finished run left in `options.catalog`: round 2's routing is
// replayed over those bounds, and every point copy of every cell takes one
// collect-all probe. `*point_copies` receives the replayed copy count.
int64_t CollectAllCandidates(const std::vector<std::vector<Rect>>& data,
                             int k, const RunnerOptions& options,
                             int64_t* point_copies) {
  const StatusOr<GridAcquisition> acquired = AcquireGrid(
      data, ResolveSpace(data, options).value(), options, ExecutionContext{});
  EXPECT_TRUE(acquired.ok() && acquired.value().cached);
  const GridPartition& grid = *acquired.value().grid;
  const auto resident = DatasetCatalog::GetOrBuild<KnnCellBounds>(
      options.catalog,
      acquired.value().grid_key + StrFormat("|knn_bounds[k=%d]", k), [] {
        ADD_FAILURE() << "the run left no round-1 bounds in the catalog";
        return KnnCellBounds{};
      });
  const std::vector<double>& bounds = resident.value().value->per_cell;

  const size_t num_cells = static_cast<size_t>(grid.num_cells());
  std::vector<KernelCell> cells(num_cells);
  std::vector<CellId> split;
  for (size_t i = 0; i < data[1].size(); ++i) {
    split.clear();
    SplitCells(grid, data[1][i], &split);
    for (const CellId c : split) {
      cells[static_cast<size_t>(c)].rects.push_back(data[1][i]);
      cells[static_cast<size_t>(c)].ids.push_back(static_cast<int64_t>(i));
    }
  }
  std::vector<std::vector<size_t>> copies(num_cells);
  for (size_t p = 0; p < data[0].size(); ++p) {
    const double bound =
        bounds[static_cast<size_t>(grid.CellOfRect(data[0][p]))];
    split.clear();
    if (std::isinf(bound)) {
      for (CellId c = 0; c < grid.num_cells(); ++c) split.push_back(c);
    } else {
      EnlargedSplitCells(grid, data[0][p], bound, &split);
    }
    for (const CellId c : split) {
      if (CellRectDistance(grid, c, data[0][p], DistanceMetric::kEuclidean) <=
          bound) {
        copies[static_cast<size_t>(c)].push_back(p);
      }
    }
  }
  int64_t candidates = 0;
  *point_copies = 0;
  for (size_t c = 0; c < num_cells; ++c) {
    *point_copies += static_cast<int64_t>(copies[c].size());
    if (copies[c].empty() || cells[c].rects.empty()) continue;
    const RTree tree(cells[c].rects);
    for (const size_t p : copies[c]) {
      const double bound =
          bounds[static_cast<size_t>(grid.CellOfRect(data[0][p]))];
      candidates += static_cast<int64_t>(
          CollectAllTopK(tree, cells[c].rects, cells[c].ids, data[0][p],
                         static_cast<int64_t>(p), bound, k)
              .size());
    }
  }
  return candidates;
}

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
    DatasetCatalog catalog;
    RunnerOptions options;
    options.grid_rows = grid[0];
    options.grid_cols = grid[1];
    options.space = Rect(0, 0, 100, 100);
    // A catalog keeps the run's round-1 bounds reachable for the replay.
    options.catalog = &catalog;
    options.artifact_key = "knn-mr-test";
    const auto result = RunKnnJoinMr(KnnQuery(), data, k, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().tuples, oracle)
        << "grid " << grid[0] << "x" << grid[1] << " k=" << k;
    // The expanding probe keeps exactly the collect-all probe's candidates.
    int64_t point_copies = 0;
    EXPECT_EQ(CounterSum(result.value(), kCounterKnnCandidates),
              CollectAllCandidates(data, k, options, &point_copies))
        << "grid " << grid[0] << "x" << grid[1] << " k=" << k;
    EXPECT_EQ(CounterSum(result.value(), kCounterKnnPointCopies),
              point_copies);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweeps, KnnMrTest,
                         ::testing::Combine(::testing::Values(1, 3, 8),
                                            ::testing::Range(0, 4)));

TEST(KnnMrEdgeTest, KGreaterThanRectCount) {
  // Fewer than k rectangles in all: round 1 emits unbounded cells, round
  // 2 replicates those points everywhere, and every rect is a neighbor.
  const std::vector<std::vector<Rect>> data = {RandomPointRects(30, 9),
                                               RandomRects(5, 10)};
  RunnerOptions options;
  const auto result = RunKnnJoinMr(KnnQuery(), data, 10, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().tuples, OracleTuples(data[0], data[1], 10));
  EXPECT_EQ(result.value().num_tuples,
            static_cast<int64_t>(data[0].size() * data[1].size()));
}

TEST(KnnMrEdgeTest, SparseCellsAreBoundedByEveryRectangle) {
  // 25 small rectangles over an 8x8 grid: most cells meet fewer than k of
  // them, so round 1 bounds those cells over every rectangle instead of
  // sending their points to all 64 cells.
  constexpr double kSpace = 10000;
  const std::vector<std::vector<Rect>> data = {
      RandomPointRects(5000, 61, kSpace), RandomRects(25, 62, kSpace)};
  RunnerOptions options;
  options.grid_rows = 8;
  options.grid_cols = 8;
  options.space = Rect(0, 0, kSpace, kSpace);
  const auto result = RunKnnJoinMr(KnnQuery(), data, 3, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  int64_t bounded_points = 0;
  int64_t point_copies = 0;
  int64_t unbounded_cells = 0;
  for (const JobStats& job : result.value().stats.jobs) {
    const auto get = [&job](const char* name) {
      const auto it = job.user_counters.find(name);
      return it != job.user_counters.end() ? it->second : int64_t{0};
    };
    bounded_points += get(kCounterKnnBoundedPoints);
    point_copies += get(kCounterKnnPointCopies);
    unbounded_cells += get(kCounterKnnUnboundedCells);
  }
  const int64_t points = static_cast<int64_t>(data[0].size());
  EXPECT_EQ(bounded_points, points);
  EXPECT_EQ(unbounded_cells, 0);
  EXPECT_LT(point_copies, 64 * points);
  EXPECT_EQ(result.value().tuples,
            KnnSingleNodeTuples(data[0], data[1], 3,
                                Rect(0, 0, kSpace, kSpace), 8, 8));
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
  // A rectangle outside the declared space is rejected even when the other
  // relation is empty, as RunSpatialJoin rejects it.
  RunnerOptions declared = options;
  declared.space = Rect(0, 0, 10, 10);
  const std::vector<Rect> outside = {Rect(20, 20, 30, 30)};
  EXPECT_EQ(RunKnnJoinMr(KnnQuery(), {{}, outside}, 2, declared)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunSpatialJoin(KnnQuery(), {{}, outside}, declared).status().code(),
            StatusCode::kInvalidArgument);
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

  // Cold run: 3 jobs (bound, join, merge); the bundle, grid and bounds
  // lookups all miss.
  ASSERT_EQ(first.value().stats.jobs.size(), 3u);
  EXPECT_EQ(first.value().stats.catalog_hits, 0);
  EXPECT_EQ(first.value().stats.catalog_misses, 3);
  // Warm run: all three are resident; the bounds skip round 1.
  ASSERT_EQ(second.value().stats.jobs.size(), 2u);
  EXPECT_EQ(second.value().stats.catalog_hits, 3);
  EXPECT_EQ(second.value().stats.catalog_misses, 0);
  EXPECT_EQ(second.value().stats.jobs[0].job_name, "knn_mr_round2_join");
}

TEST(KnnMrCatalogTest, ConcurrentIdenticalJobsBuildEachArtifactOnce) {
  DatasetCatalog catalog;
  catalog.PutDataset("points", RandomPointRects(80, 43));
  catalog.PutDataset("rects", RandomRects(200, 44));
  constexpr int kJobs = 4;
  constexpr int kDistinctKeys = 3;  // Bundle, grid, per-cell bounds.

  SchedulerOptions sched_options;
  sched_options.catalog = &catalog;
  sched_options.max_in_flight = kJobs;
  std::vector<JobHandle> handles;
  {
    JobScheduler scheduler(sched_options);
    for (int j = 0; j < kJobs; ++j) {
      JobSpec spec = MakeKnnMrJobSpec(KnnQuery(), 4);
      spec.dataset_names = {"points", "rects"};
      StatusOr<JobHandle> handle = scheduler.Submit(std::move(spec));
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      handles.push_back(std::move(handle).value());
    }
  }  // Destruction drains every submission.

  int64_t hits = 0;
  int64_t misses = 0;
  for (JobHandle& handle : handles) {
    const StatusOr<JoinRunResult>& result = handle.Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().tuples, handles[0].Wait().value().tuples);
    hits += result.value().stats.catalog_hits;
    misses += result.value().stats.catalog_misses;
  }
  EXPECT_EQ(misses, kDistinctKeys);
  EXPECT_EQ(hits, (kJobs - 1) * kDistinctKeys);
  EXPECT_EQ(catalog.misses(), misses);
  EXPECT_EQ(catalog.hits(), hits);
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
  EXPECT_NE(report.find("probe hits/copy"), std::string::npos);
  // Every kept candidate was collected by some probe.
  EXPECT_GE(CounterSum(result.value(), kCounterKnnProbeHits), candidates);
  EXPECT_NE(report.find("knn_mr_round2_join"), std::string::npos);
}

// ---- Round 2's kernel (knn_internal::LocalTopK) against the collect-all
// probe it replaced: the same candidate sequence on every input.

TEST(KnnMrLocalTopKTest, MatchesCollectAllOnRandomCells) {
  Rng rng(2026);
  for (int trial = 0; trial < 400; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(1, 200));
    const int k = std::vector<int>{1, 2, 3, 8, 16}[trial % 5];
    // Half the cells use a coarse lattice, so exact distance ties and
    // duplicate rectangles are common.
    const bool lattice = trial % 2 == 0;
    const double side = 100;
    KernelCell cell;
    for (int i = 0; i < n; ++i) {
      double x = rng.Uniform(0, side);
      double y = rng.Uniform(0, side);
      double l = rng.Uniform(0, 6);
      double b = rng.Uniform(0, 6);
      if (lattice) {
        x = std::floor(x / 10) * 10;
        y = std::floor(y / 10) * 10;
        l = std::floor(l);
        b = std::floor(b);
      }
      cell.rects.push_back(Rect(x, y, x + l, y + b));
      cell.ids.push_back(1000 - 3 * i);  // Ids against insertion order.
    }
    const double diag = side * std::numbers::sqrt2;
    const double density_radius =
        diag * std::sqrt(std::min<double>(k, n) / (std::numbers::pi * n));
    for (int q = 0; q < 6; ++q) {
      // Points inside the cell and up to one cell side outside it.
      double px = rng.Uniform(-side, 2 * side);
      double py = rng.Uniform(-side, 2 * side);
      if (lattice) {
        px = std::floor(px / 5) * 5;
        py = std::floor(py / 5) * 5;
      }
      const Rect point = Rect::FromPoint(Point{px, py});
      const double bounds[] = {kInf, rng.Uniform(0, 2 * diag),
                               rng.Uniform(0, 0.1 * diag), 0.0};
      const double radii[] = {density_radius,
                              density_radius * rng.Uniform(0.01, 100), 0.0};
      for (const double bound : bounds) {
        for (const double radius : radii) {
          ExpectSameCandidates(
              cell, point, bound, radius, k,
              StrFormat("trial %d point %d bound %g radius %g k %d", trial, q,
                        bound, radius, k));
        }
      }
    }
  }
}

TEST(KnnMrLocalTopKTest, TiesAtTheKthPlace) {
  // Three rectangles tie at distance 3 across ranks 2..4 of k = 3; their
  // ids run against their order, so the id tie-break decides the cut.
  const KernelCell cell =
      CellAtDistances({1, 2, 3, 3, 3, 5}, {50, 40, 30, 20, 10, 0});
  for (const double radius : {0.5, 1.0, 3.0, 4.0, 100.0}) {
    ExpectSameCandidates(cell, kOrigin, kInf, radius, 3,
                         StrFormat("radius %g", radius));
    ExpectSameCandidates(cell, kOrigin, 10, radius, 3,
                         StrFormat("bound 10 radius %g", radius));
  }
}

TEST(KnnMrLocalTopKTest, TieStraddlingADoublingRadius) {
  // From r = 1.5 the probes run 1.5, 3, 6. The k-th and (k+1)-th tie at
  // exactly 3: the r = 3 probe holds both but its k-th distance is not
  // inside r's margin, so r = 6 must decide, with the tie broken by id.
  const KernelCell cell = CellAtDistances({1, 2.5, 3, 3, 7}, {9, 8, 7, 6, 5});
  int64_t collected = ExpectSameCandidates(cell, kOrigin, kInf, 1.5, 3, "");
  // Probes 1.5 (1 hit), 3 (4 hits) and 6 (4 hits).
  EXPECT_EQ(collected, 1 + 4 + 4);
  // The same tie just inside the first radius's margin: one probe.
  collected = ExpectSameCandidates(cell, kOrigin, kInf, 3.0 / (1 - 2e-9), 3,
                                   "inside margin");
  EXPECT_EQ(collected, 4);
}

TEST(KnnMrLocalTopKTest, DuplicateRectangles) {
  KernelCell cell;
  for (int64_t id = 0; id < 12; ++id) {
    cell.rects.push_back(id < 6 ? Rect(4, 4, 6, 6) : Rect(10, 0, 11, 1));
    cell.ids.push_back(100 - id);
  }
  for (const int k : {1, 3, 6, 7, 12, 20}) {
    for (const double radius : {0.1, 2.0, 50.0}) {
      ExpectSameCandidates(cell, kOrigin, kInf, radius, k,
                           StrFormat("k %d radius %g", k, radius));
      ExpectSameCandidates(cell, kOrigin, 9, radius, k,
                           StrFormat("bound 9 k %d radius %g", k, radius));
    }
  }
}

TEST(KnnMrLocalTopKTest, FewerThanKRectangles) {
  const KernelCell cell = CellAtDistances({2, 4}, {1, 0});
  for (const double bound : {kInf, 100.0, 3.0, 1.0}) {
    ExpectSameCandidates(cell, kOrigin, bound, 0.25, 5,
                         StrFormat("bound %g", bound));
  }
}

TEST(KnnMrLocalTopKTest, InfiniteBoundEndsOnTheWholeCell) {
  // k exceeds the cell, so no k-th distance exists: only holding every
  // rectangle ends the loop before r overflows to the +inf bound.
  const KernelCell cell = CellAtDistances({1, 2, 3}, {0, 1, 2});
  const int64_t collected =
      ExpectSameCandidates(cell, kOrigin, kInf, 0.5, 4, "k > n");
  // Probes 0.5 (0), 1 (1), 2 (2) and 4 (3, the whole cell).
  EXPECT_EQ(collected, 0 + 1 + 2 + 3);
}

TEST(KnnMrLocalTopKTest, BoundBelowTheFirstRadius) {
  // The bound caps the first probe: one Range(bound) probe, exactly the
  // collect-all probe.
  const KernelCell cell = CellAtDistances({1, 2, 3, 4, 5}, {0, 1, 2, 3, 4});
  int64_t hits = 0;
  const RTree tree(cell.rects);
  CollectAllTopK(tree, cell.rects, cell.ids, kOrigin, 7, 2.5, 3, &hits);
  EXPECT_EQ(ExpectSameCandidates(cell, kOrigin, 2.5, 10, 3, ""), hits);
}

TEST(KnnMrLocalTopKTest, TinySpaceWhereRadiusSquaredUnderflows) {
  // Distances near 1e-160: every probe radius squares below the smallest
  // normal double, so RTree::Collect takes its hypot path
  // (QueryByMinDistance).
  const double s = 1e-160;
  const KernelCell cell = CellAtDistances(
      {1 * s, 2 * s, 2 * s, 3 * s, 5 * s, 8 * s}, {5, 4, 3, 2, 1, 0});
  for (const int k : {1, 3, 6}) {
    for (const double bound : {kInf, 4 * s}) {
      ExpectSameCandidates(cell, kOrigin, bound, 0.5 * s, k,
                           StrFormat("k %d bound %g", k, bound));
    }
  }
}

TEST(KnnMrLocalTopKTest, HugeCoordinatesWhereRadiusSquaredOverflows) {
  // Distances near 1e160: every radius squares past the largest double,
  // so RTree::Collect takes its QueryByMinDistance path.
  const double s = 1e160;
  KernelCell cell = CellAtDistances({1 * s, 2 * s, 2 * s, 3 * s, 5 * s},
                                    {0, 1, 2, 3, 4});
  for (const int k : {1, 3, 5}) {
    for (const double bound : {kInf, 4 * s, 1e300}) {
      ExpectSameCandidates(cell, kOrigin, bound, 0.3 * s, k,
                           StrFormat("k %d bound %g", k, bound));
    }
  }
}

}  // namespace
}  // namespace mwsj
