// Cross-algorithm equivalence: every distributed algorithm must produce
// exactly the brute-force output (duplicate-free) on randomized worlds
// sweeping query shapes, predicate mixes, grid sizes, rectangle scales and
// boundary-tie-inducing integer coordinates. This suite is the primary
// correctness arbiter for the whole library.

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "common/random.h"
#include "core/runner.h"
#include "localjoin/brute_force.h"
#include "testing/world.h"

namespace mwsj {
namespace {

using testing::PredicateMix;
using testing::QueryShape;
using testing::WorldConfig;

struct Scenario {
  QueryShape shape;
  PredicateMix mix;
  bool integer_coords;
  const char* name;
};

class EquivalenceTest
    : public ::testing::TestWithParam<std::tuple<Scenario, int>> {};

std::vector<Algorithm> AlgorithmsUnderTest() {
  return {Algorithm::kTwoWayCascade, Algorithm::kAllReplicate,
          Algorithm::kControlledReplicate,
          Algorithm::kControlledReplicateInLimit};
}

TEST_P(EquivalenceTest, MatchesBruteForce) {
  const Scenario& scenario = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());

  WorldConfig config;
  config.shape = scenario.shape;
  config.mix = scenario.mix;
  config.integer_coords = scenario.integer_coords;
  config.seed = static_cast<uint64_t>(seed) * 7919 + 13;

  const Query query = testing::MakeWorldQuery(config);
  const std::vector<std::vector<Rect>> data =
      testing::MakeWorldData(config, query.num_relations());

  const TupleBlock expected = BruteForceJoin(query, data);

  // Grid geometry varies with the seed: 1x1 (single reducer), skinny, and
  // square grids all must agree.
  const int grid_cases[][2] = {{1, 1}, {1, 4}, {3, 3}, {5, 2}, {4, 4}};
  const auto& grid = grid_cases[seed % 5];

  for (Algorithm algorithm : AlgorithmsUnderTest()) {
    RunnerOptions options;
    options.algorithm = algorithm;
    options.grid_rows = grid[0];
    options.grid_cols = grid[1];
    // Odd seeds also exercise quantile-placed (non-uniform) boundaries.
    options.partitioning =
        (seed % 2 == 1) ? Partitioning::kEquiDepth : Partitioning::kUniform;
    options.space = Rect(0, 0, config.space_size, config.space_size);
    StatusOr<JoinRunResult> result = RunSpatialJoin(query, data, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().tuples, expected)
        << AlgorithmName(algorithm) << " diverged from brute force on "
        << scenario.name << " seed=" << seed << " grid=" << grid[0] << "x"
        << grid[1] << " (" << result.value().tuples.size() << " vs "
        << expected.size() << " tuples)";

    // The same world counted: tree-shaped queries take the factorized
    // count in the join round, cyclic ones keep enumerating.
    options.count_only = true;
    StatusOr<JoinRunResult> counted = RunSpatialJoin(query, data, options);
    ASSERT_TRUE(counted.ok()) << counted.status().ToString();
    EXPECT_TRUE(counted.value().tuples.empty()) << AlgorithmName(algorithm);
    EXPECT_EQ(counted.value().num_tuples, static_cast<int64_t>(expected.size()))
        << AlgorithmName(algorithm) << " count-only diverged from brute force"
        << " on " << scenario.name << " seed=" << seed << " grid=" << grid[0]
        << "x" << grid[1];
  }
}

constexpr Scenario kScenarios[] = {
    {QueryShape::kChain2, PredicateMix::kOverlapOnly, false, "chain2-overlap"},
    {QueryShape::kChain2, PredicateMix::kRangeOnly, false, "chain2-range"},
    {QueryShape::kChain3, PredicateMix::kOverlapOnly, false, "chain3-overlap"},
    {QueryShape::kChain3, PredicateMix::kOverlapOnly, true,
     "chain3-overlap-int"},
    {QueryShape::kChain4, PredicateMix::kOverlapOnly, false, "chain4-overlap"},
    {QueryShape::kStar4, PredicateMix::kOverlapOnly, false, "star4-overlap"},
    {QueryShape::kCycle3, PredicateMix::kOverlapOnly, false, "cycle3-overlap"},
    {QueryShape::kChain3, PredicateMix::kRangeOnly, false, "chain3-range"},
    {QueryShape::kChain3, PredicateMix::kRangeOnly, true, "chain3-range-int"},
    {QueryShape::kChain4, PredicateMix::kRangeOnly, false, "chain4-range"},
    {QueryShape::kStar4, PredicateMix::kRangeOnly, false, "star4-range"},
    {QueryShape::kChain3, PredicateMix::kHybrid, false, "chain3-hybrid"},
    {QueryShape::kChain4, PredicateMix::kHybrid, false, "chain4-hybrid"},
    {QueryShape::kCycle3, PredicateMix::kHybrid, true, "cycle3-hybrid-int"},
};

std::string ScenarioName(
    const ::testing::TestParamInfo<std::tuple<Scenario, int>>& info) {
  std::string name = std::get<0>(info.param).name;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_seed" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorlds, EquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(kScenarios),
                       ::testing::Range(0, 12)),
    ScenarioName);

// Degenerate inputs: all algorithms agree on empty and singleton relations.
// A five-relation chain exercises deeper subset enumeration in the
// marking oracle and longer cascades.
TEST(EquivalenceEdgeCases, FiveRelationChain) {
  QueryBuilder b;
  for (int i = 0; i < 5; ++i) b.AddRelation("R" + std::to_string(i + 1));
  b.AddOverlap(0, 1).AddRange(1, 2, 10).AddOverlap(2, 3).AddRange(3, 4, 6);
  const Query query = b.Build().value();

  Rng rng(77);
  std::vector<std::vector<Rect>> data(5);
  for (auto& relation : data) {
    for (int i = 0; i < 18; ++i) {
      const double l = rng.Uniform(0, 30);
      const double h = rng.Uniform(0, 30);
      relation.push_back(
          Rect::FromXYLB(rng.Uniform(0, 100 - l), rng.Uniform(h, 100), l, h));
    }
  }
  const auto expected = BruteForceJoin(query, data);
  for (Algorithm algorithm : AlgorithmsUnderTest()) {
    RunnerOptions options;
    options.algorithm = algorithm;
    options.grid_rows = 3;
    options.grid_cols = 3;
    options.space = Rect(0, 0, 100, 100);
    const auto result = RunSpatialJoin(query, data, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().tuples, expected) << AlgorithmName(algorithm);
  }
}

// Range distances whose square is not a normal double: points on either
// side of a 2x2 grid's line x = 0. A gap of 1e-163 is beyond Ra(0) and
// Ra(1e-170), though the squares of both sides underflow to 0; a gap of
// 1e-171 is within Ra(1e-170). Every algorithm, the oracle included,
// decides both exactly.
TEST(EquivalenceEdgeCases, DistancesWithSubnormalSquares) {
  const std::vector<std::vector<Rect>> data = {
      {Rect::FromPoint(Point{-1e-163, 0.5}),
       Rect::FromPoint(Point{-1e-171, 1.5})},
      {Rect::FromPoint(Point{1e-300, 0.5}),
       Rect::FromPoint(Point{1e-300, 1.5})}};
  const struct {
    double d;
    size_t tuples;
  } cases[] = {{0.0, 0}, {1e-170, 1}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.d);
    const Query query = MakeChainQuery(2, Predicate::Range(c.d)).value();
    const TupleBlock expected = BruteForceJoin(query, data);
    ASSERT_EQ(expected.size(), c.tuples);
    std::vector<Algorithm> algorithms = AlgorithmsUnderTest();
    algorithms.push_back(Algorithm::kBruteForce);
    for (Algorithm algorithm : algorithms) {
      RunnerOptions options;
      options.algorithm = algorithm;
      options.grid_rows = 2;
      options.grid_cols = 2;
      options.space = Rect(-1, 0, 1, 2);
      const auto result = RunSpatialJoin(query, data, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result.value().tuples.size(), c.tuples)
          << AlgorithmName(algorithm);
      if (c.tuples > 0) {
        EXPECT_EQ(result.value().tuples, expected) << AlgorithmName(algorithm);
      }
    }
  }
}

// A "T"-shaped join graph (chain plus a branch off the middle).
TEST(EquivalenceEdgeCases, TreeShapedJoinGraph) {
  QueryBuilder b;
  for (int i = 0; i < 4; ++i) b.AddRelation("R" + std::to_string(i + 1));
  b.AddOverlap(0, 1).AddOverlap(1, 2).AddRange(1, 3, 12);
  const Query query = b.Build().value();

  Rng rng(91);
  std::vector<std::vector<Rect>> data(4);
  for (auto& relation : data) {
    for (int i = 0; i < 20; ++i) {
      const double l = rng.Uniform(0, 35);
      const double h = rng.Uniform(0, 35);
      relation.push_back(
          Rect::FromXYLB(rng.Uniform(0, 100 - l), rng.Uniform(h, 100), l, h));
    }
  }
  const auto expected = BruteForceJoin(query, data);
  for (Algorithm algorithm : AlgorithmsUnderTest()) {
    RunnerOptions options;
    options.algorithm = algorithm;
    options.grid_rows = 4;
    options.grid_cols = 2;
    options.space = Rect(0, 0, 100, 100);
    const auto result = RunSpatialJoin(query, data, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().tuples, expected) << AlgorithmName(algorithm);
  }
}

TEST(EquivalenceEdgeCases, EmptyRelationProducesNoTuples) {
  WorldConfig config;
  const Query query = testing::MakeWorldQuery(config);
  std::vector<std::vector<Rect>> data =
      testing::MakeWorldData(config, query.num_relations());
  data[1].clear();  // Middle relation empty: join output must be empty.

  for (Algorithm algorithm : AlgorithmsUnderTest()) {
    RunnerOptions options;
    options.algorithm = algorithm;
    options.space = Rect(0, 0, 100, 100);
    StatusOr<JoinRunResult> result = RunSpatialJoin(query, data, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result.value().tuples.empty()) << AlgorithmName(algorithm);
  }
}

TEST(EquivalenceEdgeCases, SelfJoinWithSharedDataset) {
  // The paper's Q2s shape: one dataset playing all three roles.
  WorldConfig config;
  config.seed = 99;
  config.max_rects_per_relation = 25;
  const Query query = testing::MakeWorldQuery(config);
  const auto base = testing::MakeWorldData(config, 1);
  const std::vector<std::vector<Rect>> data = {base[0], base[0], base[0]};
  const TupleBlock expected = BruteForceJoin(query, data);

  for (Algorithm algorithm : AlgorithmsUnderTest()) {
    RunnerOptions options;
    options.algorithm = algorithm;
    options.grid_rows = 3;
    options.grid_cols = 3;
    options.space = Rect(0, 0, 100, 100);
    StatusOr<JoinRunResult> result = RunSpatialJoin(query, data, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().tuples, expected) << AlgorithmName(algorithm);
  }
}

TEST(EquivalenceEdgeCases, ThreadPoolMatchesSerialByteForByte) {
  // The whole pipeline — not just one engine job — must be invariant to
  // running on a worker pool: identical tuple vectors (same order, same
  // ids) and identical shuffle accounting for every algorithm.
  WorldConfig config;
  config.seed = 314;
  config.mix = PredicateMix::kHybrid;
  const Query query = testing::MakeWorldQuery(config);
  const auto data = testing::MakeWorldData(config, query.num_relations());

  ThreadPool pool(4);
  for (Algorithm algorithm : AlgorithmsUnderTest()) {
    RunnerOptions options;
    options.algorithm = algorithm;
    options.grid_rows = 4;
    options.grid_cols = 4;
    options.space = Rect(0, 0, config.space_size, config.space_size);

    const auto serial = RunSpatialJoin(query, data, options);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    options.context = ExecutionContext(&pool);
    const auto parallel = RunSpatialJoin(query, data, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

    EXPECT_EQ(serial.value().tuples, parallel.value().tuples)
        << AlgorithmName(algorithm);
    ASSERT_EQ(serial.value().stats.jobs.size(),
              parallel.value().stats.jobs.size())
        << AlgorithmName(algorithm);
    for (size_t j = 0; j < serial.value().stats.jobs.size(); ++j) {
      const JobStats& s = serial.value().stats.jobs[j];
      const JobStats& p = parallel.value().stats.jobs[j];
      EXPECT_EQ(s.intermediate_records, p.intermediate_records)
          << AlgorithmName(algorithm) << " job " << j;
      EXPECT_EQ(s.intermediate_bytes, p.intermediate_bytes)
          << AlgorithmName(algorithm) << " job " << j;
      EXPECT_EQ(s.per_reducer_records, p.per_reducer_records)
          << AlgorithmName(algorithm) << " job " << j;
    }
  }
}

TEST(EquivalenceEdgeCases, CountOnlyMatchesMaterializedCount) {
  WorldConfig config;
  config.seed = 202;
  config.mix = PredicateMix::kHybrid;
  const Query query = testing::MakeWorldQuery(config);
  const auto data = testing::MakeWorldData(config, query.num_relations());
  const auto expected = BruteForceJoin(query, data);

  for (Algorithm algorithm : AlgorithmsUnderTest()) {
    RunnerOptions options;
    options.algorithm = algorithm;
    options.grid_rows = 3;
    options.grid_cols = 3;
    options.space = Rect(0, 0, 100, 100);
    options.count_only = true;
    StatusOr<JoinRunResult> result = RunSpatialJoin(query, data, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result.value().tuples.empty()) << AlgorithmName(algorithm);
    EXPECT_EQ(result.value().num_tuples,
              static_cast<int64_t>(expected.size()))
        << AlgorithmName(algorithm);
  }
}

// The cost model must not depend on the mode: a counted tuple is charged
// the bytes a written one costs, in every job of every algorithm.
TEST(EquivalenceEdgeCases, CountOnlyChargesMaterializedOutputBytes) {
  WorldConfig config;
  config.seed = 202;
  config.mix = PredicateMix::kHybrid;
  const Query query = testing::MakeWorldQuery(config);
  const auto data = testing::MakeWorldData(config, query.num_relations());

  for (Algorithm algorithm : AlgorithmsUnderTest()) {
    RunnerOptions options;
    options.algorithm = algorithm;
    options.grid_rows = 4;
    options.grid_cols = 4;
    options.space = Rect(0, 0, 100, 100);
    StatusOr<JoinRunResult> materialized =
        RunSpatialJoin(query, data, options);
    options.count_only = true;
    StatusOr<JoinRunResult> counted = RunSpatialJoin(query, data, options);
    ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
    ASSERT_TRUE(counted.ok()) << counted.status().ToString();
    ASSERT_GT(materialized.value().num_tuples, 0) << AlgorithmName(algorithm);
    const auto& m_jobs = materialized.value().stats.jobs;
    const auto& c_jobs = counted.value().stats.jobs;
    ASSERT_EQ(m_jobs.size(), c_jobs.size()) << AlgorithmName(algorithm);
    for (size_t j = 0; j < m_jobs.size(); ++j) {
      EXPECT_EQ(m_jobs[j].reduce_output_records,
                c_jobs[j].reduce_output_records)
          << AlgorithmName(algorithm) << " job " << j;
      EXPECT_EQ(m_jobs[j].reduce_output_bytes, c_jobs[j].reduce_output_bytes)
          << AlgorithmName(algorithm) << " job " << j;
    }
  }
}

TEST(EquivalenceEdgeCases, CountOnlyRejectsDistinctIds) {
  WorldConfig config;
  const Query query = testing::MakeWorldQuery(config);
  const auto data = testing::MakeWorldData(config, query.num_relations());
  RunnerOptions options;
  options.count_only = true;
  options.distinct_ids = true;
  options.space = Rect(0, 0, 100, 100);
  EXPECT_FALSE(RunSpatialJoin(query, data, options).ok());
}

TEST(EquivalenceEdgeCases, DistinctIdsFilterDropsRepeatedRectangles) {
  WorldConfig config;
  config.seed = 7;
  const Query query = testing::MakeWorldQuery(config);
  const auto base = testing::MakeWorldData(config, 1);
  const std::vector<std::vector<Rect>> data = {base[0], base[0], base[0]};

  RunnerOptions options;
  options.algorithm = Algorithm::kControlledReplicate;
  options.space = Rect(0, 0, 100, 100);
  options.distinct_ids = true;
  StatusOr<JoinRunResult> result = RunSpatialJoin(query, data, options);
  ASSERT_TRUE(result.ok());
  for (const IdTuple t : result.value().tuples) {
    EXPECT_NE(t[0], t[1]);
    EXPECT_NE(t[1], t[2]);
    EXPECT_NE(t[0], t[2]);
  }
}

}  // namespace
}  // namespace mwsj
