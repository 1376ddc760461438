// Unit tests for the rectilinear partitioning of §4.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "grid/grid_partition.h"

namespace mwsj {
namespace {

TEST(GridPartitionTest, CreateValidatesArguments) {
  EXPECT_FALSE(GridPartition::Create(Rect(0, 0, 4, 4), 0, 4).ok());
  EXPECT_FALSE(GridPartition::Create(Rect(0, 0, 4, 4), 4, -1).ok());
  EXPECT_FALSE(GridPartition::Create(Rect(0, 0, 0, 4), 2, 2).ok());
  EXPECT_TRUE(GridPartition::Create(Rect(0, 0, 4, 4), 2, 2).ok());
}

TEST(GridPartitionTest, CellCountMustFitACellId) {
  // 46341^2 and 65536^2 both exceed INT32_MAX: num_cells() and CellIdOf
  // would overflow, so every factory rejects them before allocating.
  const Rect space(0, 0, 4, 4);
  for (const int side : {46341, 65536}) {
    SCOPED_TRACE(side);
    const StatusOr<GridPartition> even =
        GridPartition::Create(space, side, side);
    EXPECT_EQ(even.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(even.status().message().find("cell limit"), std::string::npos)
        << even.status().message();
    EXPECT_EQ(
        GridPartition::CreateEquiDepth(space, side, side, {}).status().code(),
        StatusCode::kInvalidArgument);
  }
  // The rectilinear factory counts its cells from the boundary vectors.
  std::vector<double> bounds(65537);
  for (size_t i = 0; i < bounds.size(); ++i) {
    bounds[i] = static_cast<double>(i);
  }
  EXPECT_EQ(
      GridPartition::CreateRectilinear(bounds, bounds).status().code(),
      StatusCode::kInvalidArgument);
  // The largest square grid that fits is still accepted.
  const StatusOr<GridPartition> largest =
      GridPartition::Create(space, 46340, 46340);
  ASSERT_TRUE(largest.ok()) << largest.status().message();
  EXPECT_EQ(largest.value().num_cells(), 46340 * 46340);
}

TEST(GridPartitionTest, CellRectsTileTheSpace) {
  const GridPartition g =
      GridPartition::Create(Rect(0, 0, 8, 4), 4, 8).value();
  double area = 0;
  for (CellId c = 0; c < g.num_cells(); ++c) area += g.CellRect(c).Area();
  EXPECT_DOUBLE_EQ(area, 32.0);
  // Cell 0 is the top-left corner.
  EXPECT_EQ(g.CellRect(0), Rect(0, 3, 1, 4));
  // Last cell is the bottom-right corner.
  EXPECT_EQ(g.CellRect(g.num_cells() - 1), Rect(7, 0, 8, 1));
}

TEST(GridPartitionTest, RowColRoundTrip) {
  const GridPartition g =
      GridPartition::Create(Rect(0, 0, 6, 4), 2, 3).value();
  for (int row = 0; row < g.rows(); ++row) {
    for (int col = 0; col < g.cols(); ++col) {
      const CellId id = g.CellIdOf(row, col);
      EXPECT_EQ(g.RowOf(id), row);
      EXPECT_EQ(g.ColOf(id), col);
    }
  }
}

TEST(GridPartitionTest, InteriorPointOwnership) {
  const GridPartition g =
      GridPartition::Create(Rect(0, 0, 4, 4), 4, 4).value();
  EXPECT_EQ(g.CellOfPoint(Point{0.5, 3.5}), 0);   // Top-left cell.
  EXPECT_EQ(g.CellOfPoint(Point{3.5, 0.5}), 15);  // Bottom-right cell.
  EXPECT_EQ(g.CellOfPoint(Point{1.5, 2.5}), g.CellIdOf(1, 1));
}

TEST(GridPartitionTest, BoundaryPointsBelongToLeftUpperCell) {
  const GridPartition g =
      GridPartition::Create(Rect(0, 0, 4, 4), 4, 4).value();
  // x = 2 lies on the boundary between columns 1 and 2: left wins.
  EXPECT_EQ(g.ColOf(g.CellOfPoint(Point{2.0, 3.5})), 1);
  // y = 2 lies on the boundary between rows 1 and 2: upper wins.
  EXPECT_EQ(g.RowOf(g.CellOfPoint(Point{0.5, 2.0})), 1);
  // The space corner points clamp into corner cells.
  EXPECT_EQ(g.CellOfPoint(Point{0, 4}), 0);
  EXPECT_EQ(g.CellOfPoint(Point{4, 0}), 15);
}

TEST(GridPartitionTest, OutOfSpacePointsClampToBorderCells) {
  const GridPartition g =
      GridPartition::Create(Rect(0, 0, 4, 4), 4, 4).value();
  EXPECT_EQ(g.CellOfPoint(Point{-3, 10}), 0);
  EXPECT_EQ(g.CellOfPoint(Point{9, -2}), 15);
}

TEST(GridPartitionTest, StartCellAlwaysOverlapsTheRectangle) {
  const GridPartition g =
      GridPartition::Create(Rect(0, 0, 4, 4), 4, 4).value();
  // Including when the start point sits exactly on a grid line.
  const Rect cases[] = {
      Rect::FromXYLB(2.0, 3.0, 0.5, 0.5),  // Start on both boundaries.
      Rect::FromXYLB(1.0, 2.0, 0.0, 0.0),  // Degenerate on a crossing.
      Rect::FromXYLB(0.3, 3.9, 3.0, 3.0),  // Large rectangle.
  };
  for (const Rect& r : cases) {
    const CellId start = g.CellOfRect(r);
    EXPECT_TRUE(Overlaps(g.CellRect(start), r)) << r.ToString();
  }
}

TEST(GridPartitionTest, DistanceToCellMatchesGeometry) {
  const GridPartition g =
      GridPartition::Create(Rect(0, 0, 4, 4), 4, 4).value();
  const Rect r = Rect::FromXYLB(0.25, 3.75, 0.5, 0.5);  // Inside cell 0.
  EXPECT_DOUBLE_EQ(g.DistanceToCell(0, r), 0.0);
  EXPECT_DOUBLE_EQ(g.DistanceToCell(1, r), 0.25);      // Right neighbor.
  EXPECT_DOUBLE_EQ(g.DistanceToCell(g.CellIdOf(1, 0), r), 0.25);
  // Diagonal neighbor: Euclidean corner distance.
  EXPECT_DOUBLE_EQ(g.DistanceToCell(g.CellIdOf(1, 1), r),
                   std::sqrt(0.25 * 0.25 + 0.25 * 0.25));
}

TEST(RectilinearGridTest, CreateValidatesBoundaries) {
  EXPECT_TRUE(GridPartition::CreateRectilinear({0, 1, 4}, {0, 3, 4}).ok());
  EXPECT_FALSE(GridPartition::CreateRectilinear({0}, {0, 1}).ok());
  EXPECT_FALSE(GridPartition::CreateRectilinear({0, 1, 1}, {0, 1}).ok());
  EXPECT_FALSE(GridPartition::CreateRectilinear({0, 2, 1}, {0, 1}).ok());
}

TEST(RectilinearGridTest, NonUniformCellGeometry) {
  // Columns [0,1), [1,4); rows (top-down) [3,4], [0,3].
  const GridPartition g =
      GridPartition::CreateRectilinear({0, 1, 4}, {0, 3, 4}).value();
  EXPECT_FALSE(g.is_uniform());
  EXPECT_EQ(g.rows(), 2);
  EXPECT_EQ(g.cols(), 2);
  EXPECT_EQ(g.CellRect(0), Rect(0, 3, 1, 4));  // Top-left: thin tall strip.
  EXPECT_EQ(g.CellRect(3), Rect(1, 0, 4, 3));  // Bottom-right: big cell.
  EXPECT_EQ(g.CellOfPoint(Point{0.5, 3.5}), 0);
  EXPECT_EQ(g.CellOfPoint(Point{2, 1}), 3);
  // Boundary ownership: x=1 belongs to the left column, y=3 to the top row.
  EXPECT_EQ(g.CellOfPoint(Point{1.0, 3.5}), 0);
  EXPECT_EQ(g.CellOfPoint(Point{0.5, 3.0}), 0);
}

TEST(RectilinearGridTest, SplitRangesRespectNonUniformBoundaries) {
  const GridPartition g =
      GridPartition::CreateRectilinear({0, 1, 4}, {0, 3, 4}).value();
  const Rect r = Rect::FromXYLB(0.5, 3.5, 1.0, 1.0);  // x:[0.5,1.5] y:[2.5,3.5]
  const auto range = g.CellsOverlapping(r);
  EXPECT_EQ(range.col_lo, 0);
  EXPECT_EQ(range.col_hi, 1);
  EXPECT_EQ(range.row_lo, 0);
  EXPECT_EQ(range.row_hi, 1);
  const Rect inside = Rect::FromXYLB(2, 2, 1, 1);  // Fully in cell 3.
  const auto one = g.CellsOverlapping(inside);
  EXPECT_EQ(one.col_lo, 1);
  EXPECT_EQ(one.col_hi, 1);
  EXPECT_EQ(one.row_lo, 1);
  EXPECT_EQ(one.row_hi, 1);
}

TEST(EquiDepthGridTest, BoundariesFollowTheDataQuantiles) {
  // 1000 points clustered in x < 10 of a [0,100] space: most column
  // boundaries must fall inside the cluster.
  std::vector<Rect> sample;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = (i % 10 == 0) ? rng.Uniform(10, 100) : rng.Uniform(0, 10);
    sample.push_back(Rect::FromPoint(Point{x, rng.Uniform(0, 100)}));
  }
  const GridPartition g =
      GridPartition::CreateEquiDepth(Rect(0, 0, 100, 100), 4, 4, sample)
          .value();
  EXPECT_FALSE(g.is_uniform());
  // The first three column boundaries sit inside the dense region, so the
  // three left columns end before x=12 while a uniform grid would place
  // the first boundary at x=25.
  EXPECT_LT(g.CellRect(g.CellIdOf(0, 2)).max_x(), 12.0);
  // Start-point occupancy per column is roughly balanced.
  std::vector<int> per_col(4, 0);
  for (const Rect& r : sample) ++per_col[static_cast<size_t>(g.ColOf(g.CellOfRect(r)))];
  for (int c : per_col) EXPECT_NEAR(c, 250, 60);
}

TEST(EquiDepthGridTest, TinySampleFallsBackToUniform) {
  const std::vector<Rect> sample = {Rect::FromPoint(Point{1, 1})};
  const GridPartition g =
      GridPartition::CreateEquiDepth(Rect(0, 0, 100, 100), 4, 4, sample)
          .value();
  EXPECT_TRUE(g.is_uniform());
}

TEST(EquiDepthGridTest, DuplicateCoordinatesStillYieldValidGrid) {
  // Every start point identical: quantiles collapse; the repair keeps the
  // boundaries strictly increasing.
  const std::vector<Rect> sample(500, Rect::FromXYLB(50, 50, 1, 1));
  const auto g =
      GridPartition::CreateEquiDepth(Rect(0, 0, 100, 100), 4, 4, sample);
  ASSERT_TRUE(g.ok());
  double total = 0;
  for (CellId c = 0; c < g.value().num_cells(); ++c) {
    EXPECT_GT(g.value().CellRect(c).Area(), 0);
    total += g.value().CellRect(c).Area();
  }
  EXPECT_DOUBLE_EQ(total, 100.0 * 100.0);
}

TEST(GridPartitionTest, FourthQuadrantPredicate) {
  const GridPartition g =
      GridPartition::Create(Rect(0, 0, 4, 4), 4, 4).value();
  const CellId anchor = g.CellIdOf(1, 1);
  int count = 0;
  for (CellId c = 0; c < g.num_cells(); ++c) {
    if (g.InFourthQuadrant(c, anchor)) ++count;
  }
  EXPECT_EQ(count, 9);  // Rows 1-3 x cols 1-3.
  EXPECT_TRUE(g.InFourthQuadrant(anchor, anchor));
  EXPECT_FALSE(g.InFourthQuadrant(g.CellIdOf(0, 3), anchor));
}

}  // namespace
}  // namespace mwsj
