// Synthetic generator: the paper's §7.8.2 parameters.

#include <gtest/gtest.h>

#include "datagen/synthetic.h"

namespace mwsj {
namespace {

// The paper's setup (the SyntheticParams defaults) with n rectangles.
SyntheticParams PaperParams(int64_t n, uint64_t seed) {
  SyntheticParams p;
  p.num_rectangles = n;
  p.seed = seed;
  return p;
}

TEST(SyntheticTest, GeneratesRequestedCountInsideSpace) {
  SyntheticParams p = PaperParams(5000, 1);
  const auto data = GenerateSynthetic(p);
  ASSERT_TRUE(data.ok());
  ASSERT_EQ(data.value().size(), 5000u);
  for (const Rect& r : data.value()) {
    EXPECT_GE(r.min_x(), p.x_min);
    EXPECT_LE(r.max_x(), p.x_max);
    EXPECT_GE(r.min_y(), p.y_min);
    EXPECT_LE(r.max_y(), p.y_max);
    EXPECT_GE(r.length(), p.l_min);
    EXPECT_LE(r.length(), p.l_max);
    EXPECT_GE(r.breadth(), p.b_min);
    EXPECT_LE(r.breadth(), p.b_max);
  }
}

TEST(SyntheticTest, DeterministicPerSeed) {
  SyntheticParams p = PaperParams(100, 7);
  const auto a = GenerateSynthetic(p);
  const auto b = GenerateSynthetic(p);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value(), b.value());
  p.seed = 8;
  const auto c = GenerateSynthetic(p);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a.value(), c.value());
}

TEST(SyntheticTest, UniformCoordinatesSpreadAcrossSpace) {
  SyntheticParams p = PaperParams(20000, 3);
  const auto data = GenerateSynthetic(p);
  ASSERT_TRUE(data.ok());
  // Quadrant occupancy within 10% of uniform.
  int quadrants[4] = {};
  for (const Rect& r : data.value()) {
    const int qx = r.center().x < 50'000 ? 0 : 1;
    const int qy = r.center().y < 50'000 ? 0 : 1;
    ++quadrants[qx * 2 + qy];
  }
  for (int q : quadrants) EXPECT_NEAR(q, 5000, 500);
}

TEST(SyntheticTest, ValidationRejectsBadParams) {
  SyntheticParams p = PaperParams(10, 1);
  p.num_rectangles = -1;
  EXPECT_FALSE(GenerateSynthetic(p).ok());
  p = PaperParams(10, 1);
  p.x_max = p.x_min;
  EXPECT_FALSE(GenerateSynthetic(p).ok());
  p = PaperParams(10, 1);
  p.l_max = 200'000;  // Larger than the space.
  EXPECT_FALSE(GenerateSynthetic(p).ok());
  p = PaperParams(10, 1);
  p.b_min = 50;
  p.b_max = 10;  // Inverted.
  EXPECT_FALSE(GenerateSynthetic(p).ok());
}

TEST(SyntheticTest, GaussianDimensionsCenterOnRangeMidpoint) {
  SyntheticParams p = PaperParams(20000, 5);
  p.dist_l = Distribution::kGaussian;
  const auto data = GenerateSynthetic(p);
  ASSERT_TRUE(data.ok());
  double sum = 0;
  for (const Rect& r : data.value()) sum += r.length();
  EXPECT_NEAR(sum / 20000, 50.0, 2.0);
}

TEST(SampleDatasetTest, KeepsApproximatelyPFraction) {
  SyntheticParams p = PaperParams(20000, 9);
  const auto data = GenerateSynthetic(p);
  ASSERT_TRUE(data.ok());
  const auto half = SampleDataset(data.value(), 0.5, 11);
  EXPECT_NEAR(static_cast<double>(half.size()), 10000, 400);
  const auto none = SampleDataset(data.value(), 0.0, 11);
  EXPECT_TRUE(none.empty());
  const auto all = SampleDataset(data.value(), 1.0, 11);
  EXPECT_EQ(all.size(), data.value().size());
}

TEST(EnlargeDatasetTest, ScalesEveryRectangleAboutItsCenter) {
  const std::vector<Rect> data = {Rect::FromXYLB(10, 20, 4, 2),
                                  Rect::FromXYLB(50, 60, 1, 1)};
  const auto enlarged = EnlargeDataset(data, 2.0);
  ASSERT_EQ(enlarged.size(), 2u);
  EXPECT_EQ(enlarged[0].center(), data[0].center());
  EXPECT_DOUBLE_EQ(enlarged[0].length(), 8);
  EXPECT_DOUBLE_EQ(enlarged[0].breadth(), 4);
}

TEST(MaxDiagonalTest, FindsLargest) {
  const std::vector<Rect> data = {Rect::FromXYLB(0, 10, 3, 4),
                                  Rect::FromXYLB(0, 10, 1, 1)};
  EXPECT_DOUBLE_EQ(MaxDiagonal(data), 5.0);
  EXPECT_DOUBLE_EQ(MaxDiagonal({}), 0.0);
}

}  // namespace
}  // namespace mwsj
