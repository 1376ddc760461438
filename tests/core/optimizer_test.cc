// Sampling-based cascade-order optimizer tests.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/optimizer.h"
#include "core/runner.h"
#include "datagen/synthetic.h"
#include "localjoin/brute_force.h"

namespace mwsj {
namespace {

std::vector<Rect> Dataset(int64_t n, double dim, uint64_t seed) {
  SyntheticParams params;
  params.num_rectangles = n;
  params.x_max = params.y_max = 10'000;
  params.l_max = params.b_max = dim;
  params.seed = seed;
  return GenerateSynthetic(params).value();
}

TEST(SelectivityTest, DenserPredicatesScoreHigher) {
  QueryBuilder b;
  const int r1 = b.AddRelation("R1");
  const int r2 = b.AddRelation("R2");
  const int r3 = b.AddRelation("R3");
  b.AddOverlap(r1, r2).AddRange(r2, r3, 400);
  const Query q = b.Build().value();
  const std::vector<std::vector<Rect>> data = {
      Dataset(3000, 30, 1), Dataset(3000, 30, 2), Dataset(3000, 30, 3)};
  const std::vector<double> sel = EstimateSelectivities(q, data);
  ASSERT_EQ(sel.size(), 2u);
  // A 400-unit range predicate matches far more pairs than overlap of
  // 30-unit rectangles in a 10K space.
  EXPECT_GT(sel[1], 10 * sel[0]);
  EXPECT_GT(sel[0], 0);  // Smoothing keeps estimates positive.
}

TEST(SelectivityTest, EmptyRelationYieldsZero) {
  const Query q = MakeChainQuery(2, Predicate::Overlap()).value();
  const std::vector<std::vector<Rect>> data = {{}, Dataset(100, 30, 1)};
  const std::vector<double> sel = EstimateSelectivities(q, data);
  EXPECT_DOUBLE_EQ(sel[0], 0);
}

TEST(SelectivityTest, EmptySidesYieldZero) {
  const Query q = MakeChainQuery(2, Predicate::Overlap()).value();
  for (const auto& data : std::vector<std::vector<std::vector<Rect>>>{
           {{}, Dataset(100, 30, 1)},
           {Dataset(100, 30, 1), {}},
           {{}, {}}}) {
    const std::vector<double> sel = EstimateSelectivities(q, data);
    EXPECT_DOUBLE_EQ(sel[0], 0);
  }
}

// The selectivity EstimateSelectivities must report for R1 <pred> R2 when
// both relations fit in the sample: the smoothed brute-force pair count
// of Predicate::Evaluate over the whole relations.
double BruteForceSelectivity(const std::vector<Rect>& a,
                             const std::vector<Rect>& b,
                             const Predicate& predicate) {
  int64_t matches = 0;
  for (const Rect& ra : a) {
    for (const Rect& rb : b) {
      if (predicate.Evaluate(ra, rb)) ++matches;
    }
  }
  return (static_cast<double>(matches) + 0.5) /
         (static_cast<double>(a.size()) * static_cast<double>(b.size()));
}

double EstimatedSelectivity(const std::vector<Rect>& a,
                            const std::vector<Rect>& b,
                            const Predicate& predicate) {
  const Query q = MakeChainQuery(2, predicate).value();
  const std::vector<double> sel = EstimateSelectivities(q, {a, b});
  EXPECT_EQ(sel.size(), 1u);
  return sel.at(0);
}

std::vector<Rect> RandomRects(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Rect> out;
  for (int i = 0; i < n; ++i) {
    const double l = rng.Uniform(0, 12);
    const double b = rng.Uniform(0, 12);
    out.push_back(
        Rect::FromXYLB(rng.Uniform(0, 100 - l), rng.Uniform(b, 100), l, b));
  }
  return out;
}

class SelectivityRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SelectivityRandomTest, OverlapCountMatchesBruteForce) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  const auto a = RandomRects(120, seed * 2 + 1);
  const auto b = RandomRects(150, seed * 2 + 2);
  const Predicate p = Predicate::Overlap();
  EXPECT_EQ(EstimatedSelectivity(a, b, p), BruteForceSelectivity(a, b, p));
}

TEST_P(SelectivityRandomTest, RangeCountMatchesBruteForce) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  const auto a = RandomRects(100, seed * 3 + 1);
  const auto b = RandomRects(100, seed * 3 + 2);
  const Predicate p = Predicate::Range(6.5);
  EXPECT_EQ(EstimatedSelectivity(a, b, p), BruteForceSelectivity(a, b, p));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectivityRandomTest, ::testing::Range(0, 8));

TEST(SelectivityTest, TouchingEdgesCount) {
  const std::vector<Rect> a = {Rect::FromXYLB(0, 1, 1, 1)};
  const std::vector<Rect> b = {Rect::FromXYLB(1, 1, 1, 1)};  // Shares edge.
  const std::vector<Rect> apart = {Rect::FromXYLB(1.1, 1, 1, 1)};
  for (const Predicate& p : {Predicate::Overlap(), Predicate::Range(0)}) {
    EXPECT_EQ(EstimatedSelectivity(a, b, p), 1.5);  // One pair, smoothed.
    EXPECT_EQ(EstimatedSelectivity(a, apart, p), 0.5);
  }
}

TEST(SelectivityTest, IntegerCoordinatesWithTiedXMatchBruteForce) {
  // Grid-aligned data: many rectangles share min_x and touch along whole
  // edges, so every boundary decision is a tie.
  Rng rng(42);
  auto grid_rects = [&rng](int n) {
    std::vector<Rect> out;
    for (int i = 0; i < n; ++i) {
      const double x = static_cast<double>(rng.UniformInt(0, 5)) * 10;
      const double y = static_cast<double>(rng.UniformInt(0, 5)) * 10;
      out.push_back(Rect::FromXYLB(x, y + 8, 8, 8));
    }
    return out;
  };
  const auto a = grid_rects(60);
  const auto b = grid_rects(70);
  for (const Predicate& p :
       {Predicate::Overlap(), Predicate::Range(2), Predicate::Range(4)}) {
    EXPECT_EQ(EstimatedSelectivity(a, b, p), BruteForceSelectivity(a, b, p))
        << p.ToString();
  }
}

TEST(SelectivityTest, RangeZeroEqualsOverlap) {
  const auto a = RandomRects(80, 5);
  const auto b = RandomRects(80, 6);
  EXPECT_EQ(EstimatedSelectivity(a, b, Predicate::Range(0)),
            EstimatedSelectivity(a, b, Predicate::Overlap()));
}

TEST(SelectivityTest, SelfJoinOfDisjointRectanglesIsUnbiased) {
  // n > 2000 pairwise-disjoint unit squares joined with themselves: every
  // rectangle matches exactly its own copy, so the selectivity is 1/n and
  // the join has n tuples. Sampling only the indexed side keeps this
  // exact up to the smoothing; sampling both sides would see ~40 of the
  // 100k matching pairs.
  constexpr int kSide = 250;
  constexpr int kN = kSide * 400;
  std::vector<Rect> squares;
  for (int i = 0; i < kN; ++i) {
    squares.push_back(Rect::FromXYLB(3.0 * (i % kSide), 3.0 * (i / kSide) + 1,
                                     1, 1));
  }
  const Query q = MakeChainQuery(2, Predicate::Overlap()).value();
  const std::vector<std::vector<Rect>> data = {squares, squares};
  const std::vector<double> sel = EstimateSelectivities(q, data);
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_NEAR(sel[0] * kN, 1.0, 0.01);
  EXPECT_NEAR(EstimateCardinality(q, data) / kN, 1.0, 0.01);
}

TEST(SelectivityTest, CardinalityIsSizesTimesSelectivitiesOnAChain) {
  const Query q = MakeChainQuery(3, Predicate::Overlap()).value();
  const std::vector<std::vector<Rect>> data = {
      Dataset(3000, 120, 31), Dataset(2500, 120, 32), Dataset(1500, 120, 33)};
  const std::vector<double> sel = EstimateSelectivities(q, data);
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_DOUBLE_EQ(EstimateCardinality(q, data),
                   3000.0 * 2500.0 * 1500.0 * sel[0] * sel[1]);
}

TEST(OptimizerTest, PrefersSelectiveRelationFirstOnSkewedChain) {
  // R1 is small and sparse; R2/R3 are big and dense. Starting with the
  // R2xR3 join is catastrophically worse, so the optimizer must schedule
  // R1 within the first two relations (i.e., never join R2xR3 first).
  const Query q = MakeChainQuery(3, Predicate::Overlap()).value();
  const std::vector<std::vector<Rect>> data = {
      Dataset(200, 20, 1), Dataset(8000, 150, 2), Dataset(8000, 150, 3)};
  const std::vector<int> order = OptimizeCascadeOrder(q, data);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_TRUE(order[0] == 0 || order[1] == 0)
      << "optimizer deferred the selective relation to the end";
}

TEST(OptimizerTest, OrderIsAlwaysValidForCascade) {
  // Star query: any order must keep the connectivity invariant.
  QueryBuilder b;
  const int center = b.AddRelation("C");
  const int l1 = b.AddRelation("L1");
  const int l2 = b.AddRelation("L2");
  const int l3 = b.AddRelation("L3");
  b.AddOverlap(center, l1).AddOverlap(center, l2).AddOverlap(center, l3);
  const Query q = b.Build().value();
  const std::vector<std::vector<Rect>> data = {
      Dataset(500, 40, 1), Dataset(100, 40, 2), Dataset(900, 40, 3),
      Dataset(300, 40, 4)};
  const std::vector<int> order = OptimizeCascadeOrder(q, data);
  ASSERT_EQ(order.size(), 4u);
  // Leaves are only connected through the center, so once two relations
  // are bound the center must be among them.
  EXPECT_TRUE(order[0] == center || order[1] == center);

  RunnerOptions options;
  options.algorithm = Algorithm::kTwoWayCascade;
  options.cascade_order = order;
  options.space = Rect(0, 0, 10'000, 10'000);
  const auto result = RunSpatialJoin(q, data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().tuples, BruteForceJoin(q, data));
}

TEST(OptimizerTest, RunnerIntegrationMatchesBruteForce) {
  const Query q = MakeChainQuery(3, Predicate::Overlap()).value();
  const std::vector<std::vector<Rect>> data = {
      Dataset(150, 60, 7), Dataset(400, 60, 8), Dataset(60, 60, 9)};
  RunnerOptions options;
  options.algorithm = Algorithm::kTwoWayCascade;
  options.optimize_cascade_order = true;
  options.space = Rect(0, 0, 10'000, 10'000);
  const auto result = RunSpatialJoin(q, data, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().tuples, BruteForceJoin(q, data));
}

TEST(OptimizerTest, ChoiceReducesIntermediateVolume) {
  // Compare the optimizer's order against the worst valid order on the
  // skewed instance: its cascade must shuffle fewer intermediate records.
  const Query q = MakeChainQuery(3, Predicate::Overlap()).value();
  const std::vector<std::vector<Rect>> data = {
      Dataset(200, 20, 21), Dataset(6000, 120, 22), Dataset(6000, 120, 23)};

  auto intermediates = [&](std::vector<int> order) {
    RunnerOptions options;
    options.algorithm = Algorithm::kTwoWayCascade;
    options.cascade_order = std::move(order);
    options.count_only = true;
    options.space = Rect(0, 0, 10'000, 10'000);
    const auto result = RunSpatialJoin(q, data, options);
    EXPECT_TRUE(result.ok());
    return result.value().stats.TotalIntermediateRecords();
  };

  const std::vector<int> chosen = OptimizeCascadeOrder(q, data);
  EXPECT_LT(intermediates(chosen), intermediates({1, 2, 0}));
}

}  // namespace
}  // namespace mwsj
