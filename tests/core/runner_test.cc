// Runner façade: validation, statistics invariants the paper relies on,
// cascade order handling, and parallel-pool determinism.

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/dataset_catalog.h"
#include "core/runner.h"
#include "datagen/synthetic.h"
#include "localjoin/brute_force.h"
#include "testing/world.h"

namespace mwsj {
namespace {

TEST(RunnerValidationTest, RelationCountMustMatchQuery) {
  const Query q = MakeChainQuery(3, Predicate::Overlap()).value();
  RunnerOptions options;
  const auto result = RunSpatialJoin(q, {{}, {}}, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RunnerValidationTest, RejectedCountOnlyDistinctBuildsNoGrid) {
  // count_only with distinct_ids is rejected before the grid is resolved,
  // so the rejected request neither looks up nor stores a catalog grid.
  const Query q = MakeChainQuery(2, Predicate::Overlap()).value();
  const std::vector<std::vector<Rect>> data = {
      {Rect::FromXYLB(1, 5, 2, 2)}, {Rect::FromXYLB(2, 6, 2, 2)}};
  DatasetCatalog catalog;
  RunnerOptions options;
  options.algorithm = Algorithm::kControlledReplicate;
  options.catalog = &catalog;
  options.artifact_key = "rejected-request";
  options.count_only = true;
  options.distinct_ids = true;
  const auto rejected = RunSpatialJoin(q, data, options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(catalog.misses(), 0);
  EXPECT_EQ(catalog.hits(), 0);

  // The same request without the conflict does consult the catalog.
  options.distinct_ids = false;
  ASSERT_TRUE(RunSpatialJoin(q, data, options).ok());
  EXPECT_GT(catalog.misses(), 0);
}

TEST(RunnerValidationTest, DeclaredSpaceMustContainData) {
  const Query q = MakeChainQuery(2, Predicate::Overlap()).value();
  RunnerOptions options;
  options.space = Rect(0, 0, 10, 10);
  const std::vector<std::vector<Rect>> data = {
      {Rect::FromXYLB(50, 50, 1, 1)}, {Rect::FromXYLB(1, 1, 1, 1)}};
  EXPECT_FALSE(RunSpatialJoin(q, data, options).ok());
}

TEST(RunnerValidationTest, BadGridIsRejected) {
  const Query q = MakeChainQuery(2, Predicate::Overlap()).value();
  RunnerOptions options;
  options.grid_rows = 0;
  const std::vector<std::vector<Rect>> data = {{Rect::FromXYLB(1, 2, 1, 1)},
                                               {Rect::FromXYLB(1, 2, 1, 1)}};
  EXPECT_FALSE(RunSpatialJoin(q, data, options).ok());
}

TEST(RunnerValidationTest, DefaultSpaceIsComputedFromData) {
  const Query q = MakeChainQuery(2, Predicate::Overlap()).value();
  RunnerOptions options;  // No space set.
  const std::vector<std::vector<Rect>> data = {{Rect::FromXYLB(5, 6, 1, 1)},
                                               {Rect::FromXYLB(5.5, 6, 1, 1)}};
  const auto result = RunSpatialJoin(q, data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().tuples, (std::vector<IdTuple>{{0, 0}}));
}

TEST(RunnerValidationTest, EmptyDataWithDefaultSpaceWorks) {
  const Query q = MakeChainQuery(2, Predicate::Overlap()).value();
  RunnerOptions options;
  const auto result = RunSpatialJoin(q, {{}, {}}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().tuples.empty());
}

TEST(ComputeBoundingSpaceTest, CoversAllRelationsAndFixesDegeneracy) {
  const Rect space = ComputeBoundingSpace(
      {{Rect::FromXYLB(0, 5, 2, 2)}, {Rect::FromXYLB(10, 20, 3, 3)}});
  EXPECT_TRUE(space.Contains(Rect::FromXYLB(0, 5, 2, 2)));
  EXPECT_TRUE(space.Contains(Rect::FromXYLB(10, 20, 3, 3)));
  // A single degenerate rectangle still yields a positive-area space.
  const Rect degenerate =
      ComputeBoundingSpace({{Rect::FromPoint(Point{3, 3})}});
  EXPECT_GT(degenerate.Area(), 0);
}

// The statistics relationships the paper's evaluation narrates: C-Rep
// replicates no more rectangles than All-Rep, and C-Rep-L communicates no
// more post-replication copies than C-Rep (§7.10: "the number of
// replicated rectangles remain the same; C-Rep-L only determines the limit
// to which a rectangle is replicated").
TEST(RunnerStatsTest, ReplicationCounterInvariants) {
  testing::WorldConfig config;
  config.seed = 321;
  config.max_rects_per_relation = 40;
  const Query query = testing::MakeWorldQuery(config);
  const auto data = testing::MakeWorldData(config, query.num_relations());

  auto run = [&](Algorithm a) {
    RunnerOptions options;
    options.algorithm = a;
    options.grid_rows = 4;
    options.grid_cols = 4;
    options.space = Rect(0, 0, 100, 100);
    return RunSpatialJoin(query, data, options).value();
  };

  const JoinRunResult all_rep = run(Algorithm::kAllReplicate);
  const JoinRunResult crep = run(Algorithm::kControlledReplicate);
  const JoinRunResult crepl = run(Algorithm::kControlledReplicateInLimit);

  const int64_t all_marked =
      all_rep.stats.UserCounter(kCounterRectanglesReplicated);
  const int64_t crep_marked =
      crep.stats.UserCounter(kCounterRectanglesReplicated);
  const int64_t crepl_marked =
      crepl.stats.UserCounter(kCounterRectanglesReplicated);
  EXPECT_LE(crep_marked, all_marked);
  EXPECT_EQ(crep_marked, crepl_marked);  // Same marking decision.

  const int64_t crep_after =
      crep.stats.UserCounter(kCounterRectanglesAfterReplication);
  const int64_t crepl_after =
      crepl.stats.UserCounter(kCounterRectanglesAfterReplication);
  const int64_t all_after =
      all_rep.stats.UserCounter(kCounterRectanglesAfterReplication);
  EXPECT_LE(crepl_after, crep_after);
  EXPECT_LE(crep_after, all_after);

  // C-Rep runs two jobs; All-Rep runs one.
  EXPECT_EQ(all_rep.stats.jobs.size(), 1u);
  EXPECT_EQ(crep.stats.jobs.size(), 2u);

  // Exact identities. All-Replicate marks every rectangle, so each one is
  // replicated and every join-round record is a copy.
  int64_t inputs = 0;
  for (const auto& rel : data) inputs += static_cast<int64_t>(rel.size());
  EXPECT_EQ(all_marked, inputs);
  EXPECT_EQ(all_rep.stats.UserCounter(kCounterReplicationCopies), all_after);
  EXPECT_EQ(all_after, all_rep.stats.jobs[0].intermediate_records);
  // C-Rep / C-Rep-L project each unmarked rectangle to exactly one cell,
  // so the join round receives the copies plus one record per unmarked
  // rectangle.
  for (const JoinRunResult* r : {&crep, &crepl}) {
    EXPECT_EQ(r->stats.UserCounter(kCounterRectanglesAfterReplication) -
                  r->stats.UserCounter(kCounterReplicationCopies),
              inputs - r->stats.UserCounter(kCounterRectanglesReplicated));
  }
  EXPECT_GT(crep_marked, 0);
  EXPECT_LT(crep_marked, inputs);
}

TEST(RunnerStatsTest, CascadeRunsOneJobPerAdditionalRelation) {
  testing::WorldConfig config;
  config.shape = testing::QueryShape::kChain4;
  config.seed = 11;
  const Query query = testing::MakeWorldQuery(config);
  const auto data = testing::MakeWorldData(config, query.num_relations());
  RunnerOptions options;
  options.algorithm = Algorithm::kTwoWayCascade;
  options.space = Rect(0, 0, 100, 100);
  const auto result = RunSpatialJoin(query, data, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats.jobs.size(), 3u);
}

TEST(RunnerCascadeTest, ExplicitOrderMatchesDefault) {
  testing::WorldConfig config;
  config.seed = 5;
  const Query query = testing::MakeWorldQuery(config);  // Chain3.
  const auto data = testing::MakeWorldData(config, query.num_relations());
  const auto expected = BruteForceJoin(query, data);

  for (const std::vector<int>& order :
       {std::vector<int>{0, 1, 2}, std::vector<int>{2, 1, 0},
        std::vector<int>{1, 0, 2}, std::vector<int>{1, 2, 0}}) {
    RunnerOptions options;
    options.algorithm = Algorithm::kTwoWayCascade;
    options.space = Rect(0, 0, 100, 100);
    options.cascade_order = order;
    const auto result = RunSpatialJoin(query, data, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().tuples, expected);
  }
}

TEST(RunnerCascadeTest, InvalidOrdersAreRejected) {
  const Query query = MakeChainQuery(3, Predicate::Overlap()).value();
  const std::vector<std::vector<Rect>> data = {{Rect::FromXYLB(1, 2, 1, 1)},
                                               {Rect::FromXYLB(1, 2, 1, 1)},
                                               {Rect::FromXYLB(1, 2, 1, 1)}};
  for (const std::vector<int>& order :
       {std::vector<int>{0, 1},          // Not all relations.
        std::vector<int>{0, 0, 1},       // Not a permutation.
        std::vector<int>{0, 2, 1},       // R3 not connected to R1.
        std::vector<int>{0, 5, 1}}) {    // Out of range.
    RunnerOptions options;
    options.algorithm = Algorithm::kTwoWayCascade;
    options.cascade_order = order;
    EXPECT_FALSE(RunSpatialJoin(query, data, options).ok());
  }
}

TEST(RunnerPoolTest, ParallelExecutionIsDeterministic) {
  testing::WorldConfig config;
  config.seed = 1234;
  config.max_rects_per_relation = 60;
  const Query query = testing::MakeWorldQuery(config);
  const auto data = testing::MakeWorldData(config, query.num_relations());

  RunnerOptions serial;
  serial.algorithm = Algorithm::kControlledReplicate;
  serial.space = Rect(0, 0, 100, 100);
  const auto serial_result = RunSpatialJoin(query, data, serial);
  ASSERT_TRUE(serial_result.ok());

  ThreadPool pool(4);
  RunnerOptions parallel = serial;
  parallel.context = ExecutionContext(&pool);
  const auto parallel_result = RunSpatialJoin(query, data, parallel);
  ASSERT_TRUE(parallel_result.ok());
  EXPECT_EQ(serial_result.value().tuples, parallel_result.value().tuples);
}

TEST(AlgorithmNameTest, AllNamesAreStable) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kBruteForce), "BruteForce");
  EXPECT_STREQ(AlgorithmName(Algorithm::kTwoWayCascade), "2-way Cascade");
  EXPECT_STREQ(AlgorithmName(Algorithm::kAllReplicate), "All-Replicate");
  EXPECT_STREQ(AlgorithmName(Algorithm::kControlledReplicate), "C-Rep");
  EXPECT_STREQ(AlgorithmName(Algorithm::kControlledReplicateInLimit),
               "C-Rep-L");
}

}  // namespace
}  // namespace mwsj
