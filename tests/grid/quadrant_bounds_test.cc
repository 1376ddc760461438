// GridPartition::QuadrantXLo/QuadrantYHi against CellOfPoint: the owner
// window of the multiway local join is exact only if
//   p.x > QuadrantXLo(c)  <=>  ColOf(CellOfPoint(p)) >= ColOf(c),
//   p.y < QuadrantYHi(c)  <=>  RowOf(CellOfPoint(p)) >= RowOf(c)
// hold for every cell and every point — in particular on the grid lines,
// one ulp either side of them, and outside the space (clamped).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "grid/grid_partition.h"

namespace mwsj {
namespace {

// Every grid line one ulp below, on, and one ulp above, plus points past
// both space edges and far outside.
std::vector<double> ProbeCoordinates(std::vector<double> lines) {
  const double inf = std::numeric_limits<double>::infinity();
  const double span = lines.back() - lines.front();
  std::vector<double> out = {lines.front() - span, lines.back() + span,
                             -1e300, 1e300};
  for (double v : lines) {
    out.push_back(std::nextafter(v, -inf));
    out.push_back(v);
    out.push_back(std::nextafter(v, inf));
  }
  return out;
}

void ExpectQuadrantBoundsMatchCellOfPoint(const GridPartition& g,
                                          const std::string& label) {
  std::vector<double> x_lines;
  std::vector<double> y_lines;
  for (int col = 0; col < g.cols(); ++col) {
    const Rect cell = g.CellRect(g.CellIdOf(0, col));
    if (col == 0) x_lines.push_back(cell.min_x());
    x_lines.push_back(cell.max_x());
  }
  for (int row = g.rows() - 1; row >= 0; --row) {
    const Rect cell = g.CellRect(g.CellIdOf(row, 0));
    if (row == g.rows() - 1) y_lines.push_back(cell.min_y());
    y_lines.push_back(cell.max_y());
  }
  const std::vector<double> xs = ProbeCoordinates(x_lines);
  const std::vector<double> ys = ProbeCoordinates(y_lines);
  for (CellId c = 0; c < g.num_cells(); ++c) {
    const double x_lo = g.QuadrantXLo(c);
    const double y_hi = g.QuadrantYHi(c);
    for (double x : xs) {
      for (double y : ys) {
        const CellId owner = g.CellOfPoint(Point{x, y});
        ASSERT_EQ(x > x_lo, g.ColOf(owner) >= g.ColOf(c))
            << label << " cell " << c << " x=" << x << " x_lo=" << x_lo;
        ASSERT_EQ(y < y_hi, g.RowOf(owner) >= g.RowOf(c))
            << label << " cell " << c << " y=" << y << " y_hi=" << y_hi;
      }
    }
  }
}

TEST(QuadrantBoundsTest, UniformGridMatchesCellOfPoint) {
  ExpectQuadrantBoundsMatchCellOfPoint(
      GridPartition::Create(Rect(0, 0, 100, 100), 4, 4).value(), "4x4");
  // Spacing that is not a power of two, so grid lines carry rounding.
  ExpectQuadrantBoundsMatchCellOfPoint(
      GridPartition::Create(Rect(-7.3, 0.1, 93.1, 40.7), 3, 7).value(),
      "3x7");
  ExpectQuadrantBoundsMatchCellOfPoint(
      GridPartition::Create(Rect(0, 0, 1, 1), 1, 1).value(), "1x1");
}

TEST(QuadrantBoundsTest, RectilinearGridMatchesCellOfPoint) {
  ExpectQuadrantBoundsMatchCellOfPoint(
      GridPartition::CreateRectilinear({0, 1, 4, 4.5, 10}, {-3, 0.25, 8})
          .value(),
      "rectilinear");
}

TEST(QuadrantBoundsTest, EquiDepthGridMatchesCellOfPoint) {
  std::vector<Rect> sample;
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double x = (i % 10 == 0) ? rng.Uniform(10, 100) : rng.Uniform(0, 10);
    sample.push_back(Rect::FromPoint(Point{x, rng.Uniform(0, 100)}));
  }
  const GridPartition g =
      GridPartition::CreateEquiDepth(Rect(0, 0, 100, 100), 4, 5, sample)
          .value();
  ASSERT_FALSE(g.is_uniform());
  ExpectQuadrantBoundsMatchCellOfPoint(g, "equi-depth");
}

TEST(QuadrantBoundsTest, FirstColumnAndRowImposeNoBound) {
  const GridPartition g =
      GridPartition::Create(Rect(0, 0, 100, 100), 4, 4).value();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(g.QuadrantXLo(g.CellIdOf(2, 0)), -inf);
  EXPECT_EQ(g.QuadrantYHi(g.CellIdOf(0, 2)), inf);
  EXPECT_EQ(g.QuadrantXLo(g.CellIdOf(2, 1)), 25.0);
  EXPECT_EQ(g.QuadrantYHi(g.CellIdOf(2, 1)), 50.0);
}

}  // namespace
}  // namespace mwsj
