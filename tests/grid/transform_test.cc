// Replays Figure 2 of the paper: the project, split and replicate outputs
// of rectangle r1 on a 4x4 partitioning, plus general transform properties.

#include <gtest/gtest.h>

#include <algorithm>

#include "grid/transform.h"

namespace mwsj {
namespace {

std::vector<int> PaperIds(const std::vector<CellId>& cells) {
  std::vector<int> out;
  out.reserve(cells.size());
  for (CellId c : cells) out.push_back(c + 1);
  std::sort(out.begin(), out.end());
  return out;
}

class Figure2Test : public ::testing::Test {
 protected:
  Figure2Test()
      : grid_(GridPartition::Create(Rect(0, 0, 4, 4), 4, 4).value()),
        // r1 starts in cell 6 (row 1, col 1) and crosses into cell 7.
        r1_(Rect::FromXYLB(1.5, 2.5, 1.0, 0.3)) {}

  GridPartition grid_;
  Rect r1_;
};

TEST_F(Figure2Test, ProjectReturnsCell6) {
  EXPECT_EQ(ProjectCell(grid_, r1_) + 1, 6);
}

TEST_F(Figure2Test, SplitReturnsCells6And7) {
  std::vector<CellId> cells;
  SplitCells(grid_, r1_, &cells);
  EXPECT_EQ(PaperIds(cells), (std::vector<int>{6, 7}));
}

TEST_F(Figure2Test, ReplicateF1ReturnsFourthQuadrantCells) {
  std::vector<CellId> cells;
  ReplicateF1Cells(grid_, r1_, &cells);
  EXPECT_EQ(PaperIds(cells),
            (std::vector<int>{6, 7, 8, 10, 11, 12, 14, 15, 16}));
}

TEST_F(Figure2Test, ReplicateF2ReturnsNearbyFourthQuadrantCells) {
  // With d = 0.4 exactly the paper's cells 6, 7, 10, 11 qualify: cell 8 is
  // 0.5 away in x, row 3 is 1.2 away in y.
  for (DistanceMetric metric :
       {DistanceMetric::kEuclidean, DistanceMetric::kChebyshev}) {
    std::vector<CellId> cells;
    ReplicateF2Cells(grid_, r1_, 0.4, metric, &cells);
    EXPECT_EQ(PaperIds(cells), (std::vector<int>{6, 7, 10, 11}));
  }
}

TEST_F(Figure2Test, ChebyshevF2IsASupersetOfEuclideanF2) {
  for (double d : {0.1, 0.5, 0.9, 1.4, 2.3}) {
    std::vector<CellId> euclidean, chebyshev;
    ReplicateF2Cells(grid_, r1_, d, DistanceMetric::kEuclidean, &euclidean);
    ReplicateF2Cells(grid_, r1_, d, DistanceMetric::kChebyshev, &chebyshev);
    EXPECT_TRUE(std::includes(chebyshev.begin(), chebyshev.end(),
                              euclidean.begin(), euclidean.end()))
        << "d=" << d;
  }
}

TEST_F(Figure2Test, F2WithHugeDistanceEqualsF1) {
  std::vector<CellId> f1, f2;
  ReplicateF1Cells(grid_, r1_, &f1);
  ReplicateF2Cells(grid_, r1_, 100.0, DistanceMetric::kEuclidean, &f2);
  EXPECT_EQ(PaperIds(f1), PaperIds(f2));
}

TEST_F(Figure2Test, F2WithZeroDistanceCoversSplitWithinFourthQuadrant) {
  // d = 0: exactly the 4th-quadrant cells touching the rectangle.
  std::vector<CellId> f2;
  ReplicateF2Cells(grid_, r1_, 0.0, DistanceMetric::kEuclidean, &f2);
  EXPECT_EQ(PaperIds(f2), (std::vector<int>{6, 7}));
}

TEST_F(Figure2Test, EnlargedSplitMatchesRangeRouting) {
  // §5.3's example shape: enlarging r1 by one cell reaches the row above
  // and the columns around it.
  std::vector<CellId> cells;
  EnlargedSplitCells(grid_, r1_, 1.0, &cells);
  EXPECT_EQ(PaperIds(cells),
            (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}));
}

TEST(TransformEdgeTest, RectOnCellBoundaryIsSplitToBothSides) {
  const GridPartition g =
      GridPartition::Create(Rect(0, 0, 4, 4), 4, 4).value();
  // Right edge exactly on the x=2 grid line: touches column 2 as well.
  const Rect r = Rect::FromXYLB(1.2, 3.5, 0.8, 0.2);
  std::vector<CellId> cells;
  SplitCells(g, r, &cells);
  EXPECT_EQ(cells.size(), 2u);  // cols 1 and 2 of row 0.
}

TEST(TransformEdgeTest, SpaceSpanningRectSplitsEverywhere) {
  const GridPartition g =
      GridPartition::Create(Rect(0, 0, 4, 4), 4, 4).value();
  const Rect r = Rect::FromXYLB(0, 4, 4, 4);
  std::vector<CellId> cells;
  SplitCells(g, r, &cells);
  EXPECT_EQ(cells.size(), 16u);
}

TEST(TransformEdgeTest, DegeneratePointRectProjectsAndSplitsConsistently) {
  const GridPartition g =
      GridPartition::Create(Rect(0, 0, 4, 4), 4, 4).value();
  const Rect r = Rect::FromPoint(Point{2.5, 1.5});
  std::vector<CellId> cells;
  SplitCells(g, r, &cells);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0], ProjectCell(g, r));
}

}  // namespace
}  // namespace mwsj
