// C-Rep-L f2 metric study (§7.9 vs. the safe variant): the Chebyshev
// cell-distance test is proven sufficient for the duplicate-avoidance
// owner cell; the paper's literal Euclidean test replicates to fewer
// cells and can only ever lose tuples, never invent them. These tests pin
// both properties.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/controlled_replicate.h"
#include "core/runner.h"
#include "localjoin/brute_force.h"
#include "testing/world.h"

namespace mwsj {
namespace {

class CrepLimitMetricTest : public ::testing::TestWithParam<int> {};

TEST_P(CrepLimitMetricTest, ChebyshevIsExactAndEuclideanIsASubset) {
  testing::WorldConfig config;
  config.mix = testing::PredicateMix::kRangeOnly;
  config.range_d = 12.0;
  config.max_dim = 30.0;
  config.seed = static_cast<uint64_t>(GetParam()) * 997 + 3;
  const Query query = testing::MakeWorldQuery(config);
  const auto data = testing::MakeWorldData(config, query.num_relations());
  const auto expected = BruteForceJoin(query, data);

  RunnerOptions chebyshev;
  chebyshev.algorithm = Algorithm::kControlledReplicateInLimit;
  chebyshev.limit_metric = DistanceMetric::kChebyshev;
  chebyshev.grid_rows = 4;
  chebyshev.grid_cols = 4;
  chebyshev.space = Rect(0, 0, 100, 100);
  const auto safe = RunSpatialJoin(query, data, chebyshev);
  ASSERT_TRUE(safe.ok());
  EXPECT_EQ(safe.value().tuples, expected);

  RunnerOptions euclidean = chebyshev;
  euclidean.limit_metric = DistanceMetric::kEuclidean;
  const auto paper = RunSpatialJoin(query, data, euclidean);
  ASSERT_TRUE(paper.ok());
  // Tighter replication can only drop tuples.
  auto row_less = [](IdTuple a, IdTuple b) {
    return std::ranges::lexicographical_compare(a, b);
  };
  EXPECT_TRUE(std::includes(expected.begin(), expected.end(),
                            paper.value().tuples.begin(),
                            paper.value().tuples.end(), row_less));
  // And it never communicates more.
  EXPECT_LE(
      paper.value().stats.UserCounter(kCounterRectanglesAfterReplication),
      safe.value().stats.UserCounter(kCounterRectanglesAfterReplication));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrepLimitMetricTest, ::testing::Range(0, 10));

TEST(CrepLimitTest, LimitNeverReplicatesMoreCopiesThanFullCRep) {
  testing::WorldConfig config;
  config.mix = testing::PredicateMix::kHybrid;
  config.seed = 4242;
  config.max_rects_per_relation = 50;
  const Query query = testing::MakeWorldQuery(config);
  const auto data = testing::MakeWorldData(config, query.num_relations());

  auto run = [&](Algorithm a) {
    RunnerOptions options;
    options.algorithm = a;
    options.grid_rows = 5;
    options.grid_cols = 5;
    options.space = Rect(0, 0, 100, 100);
    return RunSpatialJoin(query, data, options).value();
  };
  const auto crep = run(Algorithm::kControlledReplicate);
  const auto crepl = run(Algorithm::kControlledReplicateInLimit);
  EXPECT_EQ(crep.tuples, crepl.tuples);
  EXPECT_LE(crepl.stats.UserCounter(kCounterRectanglesAfterReplication),
            crep.stats.UserCounter(kCounterRectanglesAfterReplication));
  EXPECT_EQ(crepl.stats.UserCounter(kCounterRectanglesReplicated),
            crep.stats.UserCounter(kCounterRectanglesReplicated));
}

// A 2-way Ra(0.1) beside a partner of diagonal 1030.05: A's f2 bound is
// exactly 0.1, and the owner cell of the pair lies at Chebyshev distance
// 0.0999999999999979 across the grid line x = 10. A bound that adds B's
// diagonal and subtracts it again reads 0.09999999999990905 and drops it.
TEST(CrepLimitTest, BoundBesideALargeDiagonalKeepsItsTuple) {
  const Query query = MakeChainQuery(2, Predicate::Range(0.1)).value();
  const std::vector<std::vector<Rect>> data = {
      {Rect::FromXYLB(9.85, 1501, 0.05000000000000249, 1),
       Rect::FromXYLB(0, 1, 1, 1)},
      {Rect::FromXYLB(10.000000000000002, 1501, 900, 501),
       Rect::FromXYLB(1999, 2000, 1, 1)}};
  const TupleBlock expected = BruteForceJoin(query, data);
  ASSERT_EQ(expected.size(), 1u);
  RunnerOptions options;
  options.algorithm = Algorithm::kControlledReplicateInLimit;
  options.grid_rows = 2;
  options.grid_cols = 200;
  const auto result = RunSpatialJoin(query, data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().tuples, expected);
}

}  // namespace
}  // namespace mwsj
