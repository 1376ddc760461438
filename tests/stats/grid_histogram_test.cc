// Grid histogram and cardinality-estimation tests.

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "localjoin/brute_force.h"
#include "stats/grid_histogram.h"

namespace mwsj {
namespace {

std::vector<Rect> UniformData(int64_t n, double dim, uint64_t seed) {
  SyntheticParams params;
  params.num_rectangles = n;
  params.x_max = params.y_max = 1000;
  params.l_max = params.b_max = dim;
  params.seed = seed;
  return GenerateSynthetic(params).value();
}

TEST(GridHistogramTest, CountsStartPointsPerCell) {
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 10, 10), 2, 2).value();
  const std::vector<Rect> data = {
      Rect::FromXYLB(1, 9, 1, 1),   // Top-left cell.
      Rect::FromXYLB(2, 8, 1, 1),   // Top-left cell.
      Rect::FromXYLB(7, 2, 1, 1),   // Bottom-right cell.
  };
  const GridHistogram h(grid, data);
  EXPECT_DOUBLE_EQ(h.CellCount(0), 2);
  EXPECT_DOUBLE_EQ(h.CellCount(3), 1);
  EXPECT_DOUBLE_EQ(h.CellCount(1), 0);
  EXPECT_DOUBLE_EQ(h.total(), 3);
  EXPECT_DOUBLE_EQ(h.CellAvgLength(0), 1);
}

TEST(GridHistogramTest, ScaleToExtrapolatesSampleCounts) {
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 1000, 1000), 4, 4).value();
  const std::vector<Rect> sample = UniformData(500, 10, 3);
  const GridHistogram h(grid, sample, /*scale_to=*/50'000);
  EXPECT_NEAR(h.total(), 50'000, 1e-6);
}

TEST(GridHistogramTest, OverlapPairEstimateTracksTruth) {
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 1000, 1000), 4, 4).value();
  const std::vector<Rect> a = UniformData(2000, 40, 5);
  const std::vector<Rect> b = UniformData(2000, 40, 6);
  int64_t truth = 0;
  for (const Rect& ra : a) {
    for (const Rect& rb : b) {
      if (Overlaps(ra, rb)) ++truth;
    }
  }
  const GridHistogram ha(grid, a);
  const GridHistogram hb(grid, b);
  const double estimate = ha.EstimateOverlapPairs(hb);
  EXPECT_GT(estimate, 0.4 * static_cast<double>(truth));
  EXPECT_LT(estimate, 2.5 * static_cast<double>(truth));
}

TEST(GridHistogramTest, RangeEstimateGrowsWithDistance) {
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 1000, 1000), 4, 4).value();
  const GridHistogram ha(grid, UniformData(1000, 20, 7));
  const GridHistogram hb(grid, UniformData(1000, 20, 8));
  EXPECT_LT(ha.EstimateRangePairs(hb, 5), ha.EstimateRangePairs(hb, 50));
  EXPECT_GE(ha.EstimateRangePairs(hb, 0), ha.EstimateOverlapPairs(hb) - 1e-9);
}

TEST(GridHistogramTest, JoinCardinalityEstimateTracksTruth) {
  const Query q = MakeChainQuery(3, Predicate::Overlap()).value();
  const std::vector<std::vector<Rect>> data = {UniformData(800, 50, 11),
                                               UniformData(800, 50, 12),
                                               UniformData(800, 50, 13)};
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 1000, 1000), 4, 4).value();
  std::vector<GridHistogram> histograms;
  for (const auto& rel : data) histograms.emplace_back(grid, rel);
  const double estimate = EstimateJoinCardinality(q, histograms);
  const double truth = static_cast<double>(BruteForceJoin(q, data).size());
  EXPECT_GT(estimate, 0.2 * truth);
  EXPECT_LT(estimate, 5 * truth);
}

}  // namespace
}  // namespace mwsj
