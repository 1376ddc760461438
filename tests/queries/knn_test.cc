// Exact kNN query vs. nested-loop reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/random.h"
#include "common/thread_pool.h"
#include "queries/knn.h"

namespace mwsj {
namespace {

std::vector<Point> RandomPoints(int n, uint64_t seed, double space = 100) {
  Rng rng(seed);
  std::vector<Point> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(Point{rng.Uniform(0, space), rng.Uniform(0, space)});
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

std::vector<std::vector<KnnNeighbor>> Reference(
    const std::vector<Point>& points, const std::vector<Rect>& rects, int k) {
  std::vector<std::vector<KnnNeighbor>> out(points.size());
  for (size_t p = 0; p < points.size(); ++p) {
    std::vector<KnnNeighbor> all;
    all.reserve(rects.size());
    for (size_t r = 0; r < rects.size(); ++r) {
      all.push_back(KnnNeighbor{static_cast<int64_t>(r),
                                MinDistance(rects[r], points[p])});
    }
    std::sort(all.begin(), all.end(),
              [](const KnnNeighbor& a, const KnnNeighbor& b) {
                if (a.distance != b.distance) return a.distance < b.distance;
                return a.rect_id < b.rect_id;
              });
    if (static_cast<int>(all.size()) > k) all.resize(static_cast<size_t>(k));
    out[p] = std::move(all);
  }
  return out;
}

class KnnTest : public ::testing::TestWithParam<std::tuple<int, int>> {};
// Params: (k, seed).

TEST_P(KnnTest, MatchesReference) {
  const int k = std::get<0>(GetParam());
  const uint64_t seed = static_cast<uint64_t>(std::get<1>(GetParam()));
  const auto points = RandomPoints(120, seed * 5 + 1);
  const auto rects = RandomRects(250, seed * 5 + 2);
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 100, 100), 4, 4).value();
  const auto result = KnnJoin(grid, points, rects, k);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().neighbors, Reference(points, rects, k));
}

INSTANTIATE_TEST_SUITE_P(Sweeps, KnnTest,
                         ::testing::Combine(::testing::Values(1, 3, 8),
                                            ::testing::Range(0, 4)));

TEST(KnnEdgeTest, FewerRectanglesThanK) {
  // Fewer rectangles than k: every probe must grow until it holds them
  // all.
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 100, 100), 4, 4).value();
  const auto points = RandomPoints(30, 9);
  const auto rects = RandomRects(5, 10);
  const auto result = KnnJoin(grid, points, rects, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().neighbors, Reference(points, rects, 10));
  for (const auto& nn : result.value().neighbors) {
    EXPECT_EQ(nn.size(), 5u);  // All rectangles are neighbors.
  }
}

TEST(KnnEdgeTest, PointInsideRectangleHasDistanceZero) {
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 100, 100), 2, 2).value();
  const std::vector<Point> points = {{10, 10}};
  const std::vector<Rect> rects = {Rect::FromXYLB(5, 15, 10, 10),
                                   Rect::FromXYLB(50, 60, 5, 5)};
  const auto result = KnnJoin(grid, points, rects, 1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().neighbors[0].size(), 1u);
  EXPECT_EQ(result.value().neighbors[0][0].rect_id, 0);
  EXPECT_DOUBLE_EQ(result.value().neighbors[0][0].distance, 0);
}

TEST(KnnEdgeTest, InvalidKAndEmptyInputs) {
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 100, 100), 2, 2).value();
  EXPECT_FALSE(KnnJoin(grid, {}, {}, 0).ok());
  const auto empty = KnnJoin(grid, {}, RandomRects(5, 2), 3);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().neighbors.empty());
  const auto no_rects = KnnJoin(grid, RandomPoints(4, 3), {}, 3);
  ASSERT_TRUE(no_rects.ok());
  for (const auto& nn : no_rects.value().neighbors) EXPECT_TRUE(nn.empty());
}

TEST(KnnTieBreakTest, DuplicateRectanglesAtIdenticalDistanceTruncateById) {
  // Regression for the deterministic k-truncation contract: four copies of
  // one rectangle sit at the same exact distance and k cuts inside the
  // tie, so the cut must keep the lowest rect ids — on every grid
  // geometry, including the single cell.
  const std::vector<Point> points = {{50, 50}};
  const Rect dup = Rect::FromXYLB(60, 57, 2, 2);   // Distance 10 from (50,50).
  const Rect closer = Rect::FromXYLB(53, 52, 2, 2);  // Distance 3.
  const std::vector<Rect> rects = {dup, dup, closer, dup, dup};
  for (const auto& [rows, cols] : {std::pair{1, 1}, {2, 2}, {4, 4}}) {
    const GridPartition grid =
        GridPartition::Create(Rect(0, 0, 100, 100), rows, cols).value();
    const auto result = KnnJoin(grid, points, rects, 3);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().neighbors, Reference(points, rects, 3));
    const auto& nn = result.value().neighbors[0];
    ASSERT_EQ(nn.size(), 3u);
    EXPECT_EQ(nn[0].rect_id, 2);  // The closer rectangle.
    EXPECT_EQ(nn[1].rect_id, 0);  // Then the tie, cut by ascending id:
    EXPECT_EQ(nn[2].rect_id, 1);  // copies 3 and 4 fall off the k edge.
    EXPECT_DOUBLE_EQ(nn[1].distance, nn[2].distance);
  }
}

TEST(KnnPropertyTest, DuplicatePointsGetIdenticalNeighborLists) {
  auto points = RandomPoints(60, 14);
  points.push_back(points[0]);
  points.push_back(points[0]);
  const auto rects = RandomRects(120, 15);
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 100, 100), 3, 3).value();
  const auto result = KnnJoin(grid, points, rects, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().neighbors, Reference(points, rects, 4));
  const auto& nn = result.value().neighbors;
  EXPECT_EQ(nn[0], nn[nn.size() - 1]);
  EXPECT_EQ(nn[0], nn[nn.size() - 2]);
}

TEST(KnnPropertyTest, PointsOnRectangleCornersBreakZeroDistanceTiesById) {
  // A point on the shared corner of four rectangles is at distance zero
  // from all of them; k=2 must keep ids 0 and 1. The corner lies on a
  // 2x2 cell boundary.
  const std::vector<Point> points = {{50, 50}, {0, 0}, {100, 100}};
  const std::vector<Rect> rects = {
      Rect(40, 40, 50, 50), Rect(50, 50, 60, 60), Rect(40, 50, 50, 60),
      Rect(50, 40, 60, 50), Rect(0, 0, 5, 5)};
  for (const int k : {1, 2, 4}) {
    const GridPartition grid =
        GridPartition::Create(Rect(0, 0, 100, 100), 2, 2).value();
    const auto result = KnnJoin(grid, points, rects, k);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().neighbors, Reference(points, rects, k)) << k;
    EXPECT_EQ(result.value().neighbors[0][0].rect_id, 0) << k;
    EXPECT_DOUBLE_EQ(result.value().neighbors[0][0].distance, 0) << k;
  }
}

TEST(KnnPropertyTest, SparseCornerDataFallsBackToUnboundedProbe) {
  // All rectangles cluster in one corner, so the first probe radius (set
  // for uniform density) finds fewer than k of them for most points; those
  // probes must keep growing and still match the oracle exactly.
  const auto points = RandomPoints(150, 16);
  const auto rects = RandomRects(6, 17, /*space=*/20);  // Corner cluster.
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 100, 100), 5, 5).value();
  const auto result = KnnJoin(grid, points, rects, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().neighbors, Reference(points, rects, 4));
}

TEST(KnnPropertyTest, KOneBreaksExactTies) {
  // A point equidistant from two identical rectangles: k=1 keeps id 0.
  const std::vector<Point> points = {{50, 50}};
  const Rect r = Rect::FromXYLB(58, 52, 4, 4);
  const std::vector<Rect> rects = {r, r};
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 100, 100), 2, 2).value();
  const auto result = KnnJoin(grid, points, rects, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().neighbors, Reference(points, rects, 1));
  ASSERT_EQ(result.value().neighbors[0].size(), 1u);
  EXPECT_EQ(result.value().neighbors[0][0].rect_id, 0);
}

TEST(KnnPoolTest, OutputIsIdenticalAtEveryPoolSize) {
  // Enough points for several blocks, so a 4-thread pool really splits
  // them; every point writes its own slot, so no pool size may change a
  // single neighbor list.
  const auto points = RandomPoints(3000, 22);
  const auto rects = RandomRects(800, 23);
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 100, 100), 4, 4).value();
  const auto serial = KnnJoin(grid, points, rects, 5);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial.value().neighbors, Reference(points, rects, 5));
  for (const size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const auto pooled =
        KnnJoin(grid, points, rects, 5, ExecutionContext(&pool));
    ASSERT_TRUE(pooled.ok());
    EXPECT_EQ(pooled.value().neighbors, serial.value().neighbors) << threads;
  }
}

TEST(KnnGridTest, PointsOutsideTheGridSpaceMatchReference) {
  // The grid only seeds the first probe radius: points far outside its
  // space, and grids whose space misses the data entirely, still get the
  // exact neighbors.
  auto points = RandomPoints(40, 24);
  points.push_back(Point{-500, 50});
  points.push_back(Point{1e6, -1e6});
  points.push_back(Point{100.5, 100.5});
  const auto rects = RandomRects(200, 25);
  for (const Rect& space :
       {Rect(0, 0, 100, 100), Rect(40, 40, 41, 41),
        Rect(5000, 5000, 9000, 9000), Rect(7, 7, 7.001, 7.001)}) {
    const GridPartition grid = GridPartition::Create(space, 3, 3).value();
    for (const int k : {1, 6}) {
      const auto result = KnnJoin(grid, points, rects, k);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result.value().neighbors, Reference(points, rects, k))
          << space.min_x() << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace mwsj
