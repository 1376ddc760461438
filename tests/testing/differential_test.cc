// Differential suite for the distributed kNN join: 100+ randomized worlds
// (50 serial + 50 pooled) run through the generic harness
// (testing/differential.h), each pinned simultaneously against the scalar
// brute-force oracle, the single-node R-tree KnnJoin, and a fault-free
// in-memory baseline while the variant run sweeps every perturbation axis
// at once — seeded fault plans (crash / flaky-I/O / straggler, including
// spill-flush faults), shuffle budgets from pinned-in-memory down to 1
// byte, and grid geometries from a single reducer to 4x4. Byte-identity
// everywhere is the tentpole contract of queries/knn_mr.h.
//
// MWSJ_CHAOS_SEED_BASE (env, default 0) shifts every world and fault seed,
// exactly like the multiway chaos sweep (chaos_test.cc).

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "queries/knn_mr.h"
#include "testing/differential.h"
#include "testing/world.h"

namespace mwsj {
namespace {

using testing::DifferentialOptions;
using testing::DifferentialOutcome;
using testing::DifferentialWorkload;
using testing::KnnOracleTuples;
using testing::KnnSingleNodeTuples;
using testing::KnnWorldConfig;
using testing::MakeKnnWorldData;
using testing::RunDifferentialWorld;

uint64_t SeedBase() {
  const char* env = std::getenv("MWSJ_CHAOS_SEED_BASE");
  if (env == nullptr || *env == '\0') return 0;
  return std::strtoull(env, nullptr, 10);
}

Query KnnQuery() { return MakeChainQuery(2, Predicate::Overlap()).value(); }

// Assembles the knn-mr workload for one world: the oracle is the scalar
// brute force, the run folds the harness's context into RunKnnJoinMr.
// Everything is captured by reference; the world outlives the harness call.
DifferentialWorkload MakeKnnWorkload(const Query& query,
                                     const std::vector<std::vector<Rect>>& data,
                                     const RunnerOptions& runner, int k) {
  DifferentialWorkload workload;
  workload.name = "knn-mr";
  workload.oracle = [&data, k] { return KnnOracleTuples(data[0], data[1], k); };
  workload.run = [&query, &data, &runner,
                  k](const ExecutionContext& ctx) {
    RunnerOptions options = runner;
    options.context = ctx;
    return RunKnnJoinMr(query, data, k, options);
  };
  return workload;
}

class KnnMrChaosTest : public ::testing::TestWithParam<bool> {};

TEST_P(KnnMrChaosTest, DifferentialWorldsStayByteIdentical) {
  const bool threaded = GetParam();
  const uint64_t base = SeedBase();
  std::unique_ptr<ThreadPool> pool;
  if (threaded) pool = std::make_unique<ThreadPool>(4);
  const Query query = KnnQuery();

  constexpr int kWorldsPerCase = 50;  // x {serial, pool} = 100 worlds.
  constexpr int kKs[] = {1, 2, 3, 8, 16};
  constexpr int kGrids[][2] = {{1, 1}, {1, 4}, {3, 3}, {5, 2}, {4, 4}};
  // -1 pins the in-memory shuffle; 1 spills every chunk; 512 and 16k mix
  // resident and spilled chunks; 0 inherits MWSJ_SHUFFLE_BUDGET.
  constexpr int64_t kBudgets[] = {-1, 1, 512, 16 * 1024, 0};

  DifferentialOutcome total;
  for (int i = 0; i < kWorldsPerCase; ++i) {
    KnnWorldConfig config;
    config.num_points = 40 + (i % 7) * 15;
    config.num_rects = 60 + (i % 11) * 20;
    config.with_duplicates = (i % 4 == 0);
    config.seed = base * 1000003 + static_cast<uint64_t>(i) * 7919 + 37;
    const std::vector<std::vector<Rect>> data = MakeKnnWorldData(config);
    const int k = kKs[i % 5];
    const auto& grid = kGrids[(i / 5) % 5];

    RunnerOptions runner;
    runner.grid_rows = grid[0];
    runner.grid_cols = grid[1];
    runner.space = Rect(0, 0, config.space_size, config.space_size);

    // Second pin: the single-node R-tree KnnJoin, which shares no engine
    // or routing code with knn-mr, must already agree with the oracle in
    // knn-mr's encoding.
    const TupleBlock oracle = KnnOracleTuples(data[0], data[1], k);
    ASSERT_EQ(KnnSingleNodeTuples(data[0], data[1], k, *runner.space, grid[0],
                                  grid[1]),
              oracle)
        << "single-node kNN diverged, world " << i << " seed " << config.seed
        << " k " << k;

    const DifferentialWorkload workload =
        MakeKnnWorkload(query, data, runner, k);
    DifferentialOptions diff;
    diff.fault_seed = base * 6364136223846793005ull +
                      static_cast<uint64_t>(i) * 104729 + 23;
    diff.pool = pool.get();
    diff.shuffle_memory_budget = kBudgets[i % 5];

    const DifferentialOutcome outcome = RunDifferentialWorld(workload, diff);
    EXPECT_TRUE(outcome.ok())
        << (threaded ? "(pool)" : "(serial)") << " knn world " << i << " seed "
        << config.seed << " fault_seed " << diff.fault_seed << " k " << k
        << " grid " << grid[0] << "x" << grid[1] << " budget "
        << diff.shuffle_memory_budget << ": " << outcome.mismatch;
    if (!outcome.ok()) break;

    total.attempts += outcome.attempts;
    total.retries += outcome.retries;
    total.speculative += outcome.speculative;
    total.wasted_records += outcome.wasted_records;
    total.backoff_seconds += outcome.backoff_seconds;
    total.spilled_runs += outcome.spilled_runs;
    total.spill_flush_retries += outcome.spill_flush_retries;
  }

  // The sweep is only meaningful if every perturbation axis actually
  // fired: retried attempts, re-executed stragglers, discarded output,
  // and chunks that went out of core.
  EXPECT_GT(total.retries, 0) << "fault plans never fired";
  EXPECT_GT(total.speculative, 0) << "no straggler was ever re-executed";
  EXPECT_GT(total.wasted_records, 0) << "no attempt output was discarded";
  EXPECT_GT(total.spilled_runs, 0) << "no chunk ever went out of core";
}

INSTANTIATE_TEST_SUITE_P(SeededFaultPlans, KnnMrChaosTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("Pool")
                                             : std::string("Serial");
                         });

// Pure spill parity, no faults: a 1-byte budget (everything out of core,
// maximum merge width) must reproduce the in-memory knn-mr run exactly.
TEST(KnnMrSpillChaosTest, FaultFreeSpillMatchesInMemory) {
  KnnWorldConfig config;
  config.with_duplicates = true;
  config.seed = SeedBase() * 131 + 83;
  const std::vector<std::vector<Rect>> data = MakeKnnWorldData(config);
  const Query query = KnnQuery();
  RunnerOptions runner;
  runner.grid_rows = 3;
  runner.grid_cols = 3;
  runner.space = Rect(0, 0, config.space_size, config.space_size);

  DifferentialOptions diff;
  diff.crash_prob = 0;
  diff.flaky_prob = 0;
  diff.slow_prob = 0;
  diff.shuffle_memory_budget = 1;

  const DifferentialOutcome outcome =
      RunDifferentialWorld(MakeKnnWorkload(query, data, runner, 4), diff);
  EXPECT_TRUE(outcome.ok()) << outcome.mismatch;
  EXPECT_GT(outcome.spilled_runs, 0);
  EXPECT_EQ(outcome.spill_flush_retries, 0);
}

// Targeted injection: spill flushes crash outright and die mid-flush while
// every knn-mr chunk is forced out of core. The retried flushes must leave
// no phantom bytes and the merged top-k must still match the oracle and
// the in-memory baseline.
TEST(KnnMrSpillChaosTest, CrashMidSpillFlushRecovers) {
  FaultPlan plan;  // No seeded layer: only the exact injected faults fire.
  plan.Inject(FaultPhase::kSpill, 0, 0, FaultKind::kCrash);
  plan.Inject(FaultPhase::kSpill, 0, 1, FaultKind::kFlakyIo);  // Double hit.
  plan.Inject(FaultPhase::kSpill, 1, 0, FaultKind::kFlakyIo);
  plan.Inject(FaultPhase::kSpill, 2, 0, FaultKind::kSlow);

  KnnWorldConfig config;
  config.seed = SeedBase() * 977 + 51;
  const std::vector<std::vector<Rect>> data = MakeKnnWorldData(config);
  const Query query = KnnQuery();
  RunnerOptions runner;
  runner.grid_rows = 4;
  runner.grid_cols = 4;
  runner.space = Rect(0, 0, config.space_size, config.space_size);

  DifferentialOptions diff;
  diff.shuffle_memory_budget = 1;  // Every chunk must flush.
  diff.fault_plan = &plan;

  const DifferentialOutcome outcome =
      RunDifferentialWorld(MakeKnnWorkload(query, data, runner, 3), diff);
  EXPECT_TRUE(outcome.ok()) << outcome.mismatch;
  EXPECT_GT(outcome.spilled_runs, 0);
  // Chunk 0 faults twice and chunk 1 once — in each of the three rounds.
  EXPECT_GE(outcome.spill_flush_retries, 3);
  EXPECT_GT(outcome.spill_wasted_flush_bytes, 0)
      << "the mid-flush abort never staged partial buckets";
}

// The same seeded plan must recover identically with and without a worker
// pool: plans key on (phase, task, attempt), never on threads.
TEST(KnnMrChaosDeterminism, PoolInvariantFaultAccounting) {
  KnnWorldConfig config;
  config.seed = SeedBase() * 31 + 9;
  const std::vector<std::vector<Rect>> data = MakeKnnWorldData(config);
  const Query query = KnnQuery();
  RunnerOptions runner;
  runner.grid_rows = 3;
  runner.grid_cols = 3;
  runner.space = Rect(0, 0, config.space_size, config.space_size);

  DifferentialOptions serial_options;
  serial_options.fault_seed = SeedBase() + 47;
  const DifferentialOutcome serial = RunDifferentialWorld(
      MakeKnnWorkload(query, data, runner, 5), serial_options);
  ASSERT_TRUE(serial.ok()) << serial.mismatch;

  ThreadPool pool(4);
  DifferentialOptions pool_options = serial_options;
  pool_options.pool = &pool;
  const DifferentialOutcome threaded = RunDifferentialWorld(
      MakeKnnWorkload(query, data, runner, 5), pool_options);
  ASSERT_TRUE(threaded.ok()) << threaded.mismatch;

  EXPECT_EQ(serial.attempts, threaded.attempts);
  EXPECT_EQ(serial.retries, threaded.retries);
  EXPECT_EQ(serial.speculative, threaded.speculative);
  EXPECT_EQ(serial.wasted_records, threaded.wasted_records);
  EXPECT_EQ(serial.num_tuples, threaded.num_tuples);
  EXPECT_DOUBLE_EQ(serial.backoff_seconds, threaded.backoff_seconds);
}

// The harness itself must fail loudly: a corrupted oracle (one tuple
// dropped) has to surface as a brute-force divergence, not pass silently.
TEST(DifferentialHarnessTest, FlagsOracleDivergence) {
  KnnWorldConfig config;
  config.num_points = 20;
  config.num_rects = 40;
  config.seed = 77;
  const std::vector<std::vector<Rect>> data = MakeKnnWorldData(config);
  const Query query = KnnQuery();
  RunnerOptions runner;
  runner.space = Rect(0, 0, config.space_size, config.space_size);

  DifferentialWorkload workload = MakeKnnWorkload(query, data, runner, 2);
  workload.oracle = [&data] {
    const TupleBlock full = KnnOracleTuples(data[0], data[1], 2);
    TupleBlock broken(full.arity());  // Every row but the last.
    for (size_t i = 0; i + 1 < full.size(); ++i) broken.Append(full[i]);
    return broken;
  };
  DifferentialOptions diff;
  diff.crash_prob = 0;
  diff.flaky_prob = 0;
  diff.slow_prob = 0;

  const DifferentialOutcome outcome = RunDifferentialWorld(workload, diff);
  EXPECT_FALSE(outcome.ok());
  EXPECT_NE(outcome.mismatch.find("diverged from brute force"),
            std::string::npos)
      << outcome.mismatch;
}

// A workload whose baseline run fails must be reported as such, with the
// workload's name in the message.
TEST(DifferentialHarnessTest, ReportsBaselineFailure) {
  DifferentialWorkload workload;
  workload.name = "always-broken";
  workload.oracle = [] { return TupleBlock(); };
  workload.run = [](const ExecutionContext&) {
    return StatusOr<JoinRunResult>(Status::Internal("boom"));
  };
  const DifferentialOutcome outcome =
      RunDifferentialWorld(workload, DifferentialOptions());
  EXPECT_FALSE(outcome.ok());
  EXPECT_NE(outcome.mismatch.find("always-broken"), std::string::npos);
  EXPECT_NE(outcome.mismatch.find("baseline run failed"), std::string::npos);
}

}  // namespace
}  // namespace mwsj
