// Randomized chaos property test: 100+ worlds of seeded fault plans swept
// over every distributed algorithm, threaded and unthreaded. Each world
// must produce byte-identical output, counters, and DFS accounting to a
// fault-free run (and the brute-force oracle) — the engine's exactly-once
// re-execution contract under crash, flaky-I/O, and straggler faults.
//
// MWSJ_CHAOS_SEED_BASE (env, default 0) shifts every world and fault seed;
// CI runs a small matrix of bases so the suite keeps exploring new plans
// while any failure stays reproducible from the logged config.

#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "testing/chaos.h"

namespace mwsj {
namespace {

using testing::ChaosOptions;
using testing::ChaosOutcome;
using testing::PredicateMix;
using testing::QueryShape;
using testing::WorldConfig;

constexpr int kWorldsPerCase = 13;  // x (4 algorithms x {serial, pool}) = 104.

uint64_t SeedBase() {
  const char* env = std::getenv("MWSJ_CHAOS_SEED_BASE");
  if (env == nullptr || *env == '\0') return 0;
  return std::strtoull(env, nullptr, 10);
}

class ChaosTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, bool>> {};

TEST_P(ChaosTest, ExactlyOnceUnderSeededFaultPlans) {
  const Algorithm algorithm = std::get<0>(GetParam());
  const bool threaded = std::get<1>(GetParam());
  const uint64_t base = SeedBase();

  std::unique_ptr<ThreadPool> pool;
  if (threaded) pool = std::make_unique<ThreadPool>(4);

  constexpr QueryShape kShapes[] = {QueryShape::kChain3, QueryShape::kChain4,
                                    QueryShape::kStar4, QueryShape::kCycle3};
  constexpr PredicateMix kMixes[] = {PredicateMix::kOverlapOnly,
                                     PredicateMix::kRangeOnly,
                                     PredicateMix::kHybrid};

  ChaosOutcome total;
  for (int i = 0; i < kWorldsPerCase; ++i) {
    WorldConfig config;
    config.shape = kShapes[i % 4];
    config.mix = kMixes[i % 3];
    config.integer_coords = (i % 2 == 1);
    config.seed = base * 1000003 + static_cast<uint64_t>(i) * 7919 + 13;

    ChaosOptions options;
    options.fault_seed = base * 6364136223846793005ull +
                         static_cast<uint64_t>(i) * 104729 + 1;
    options.pool = pool.get();

    const ChaosOutcome outcome =
        testing::RunChaosWorld(config, algorithm, options);
    EXPECT_TRUE(outcome.ok())
        << AlgorithmName(algorithm) << (threaded ? " (pool)" : " (serial)")
        << " world " << i << " seed " << config.seed << " fault_seed "
        << options.fault_seed << ": " << outcome.mismatch;
    if (!outcome.ok()) break;

    total.attempts += outcome.attempts;
    total.retries += outcome.retries;
    total.speculative += outcome.speculative;
    total.wasted_records += outcome.wasted_records;
    total.backoff_seconds += outcome.backoff_seconds;
  }

  // The sweep is only meaningful if the plans actually fired: across 13
  // worlds at ~20% per-attempt fault probability, every case must see
  // retries, stragglers, and discarded work.
  EXPECT_GT(total.retries, 0) << "fault plans never fired";
  EXPECT_GT(total.speculative, 0) << "no straggler was ever re-executed";
  EXPECT_GT(total.wasted_records, 0) << "no attempt output was discarded";
  EXPECT_GT(total.backoff_seconds, 0) << "retries never backed off";
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<Algorithm, bool>>& info) {
  // AlgorithmName() strings ("2-way Cascade", "C-Rep") are not valid gtest
  // identifiers; map to clean ones.
  std::string name;
  switch (std::get<0>(info.param)) {
    case Algorithm::kTwoWayCascade: name = "Cascade"; break;
    case Algorithm::kAllReplicate: name = "AllReplicate"; break;
    case Algorithm::kControlledReplicate: name = "CRep"; break;
    case Algorithm::kControlledReplicateInLimit: name = "CRepL"; break;
    default: name = "Unknown"; break;
  }
  return name + (std::get<1>(info.param) ? "Pool" : "Serial");
}

INSTANTIATE_TEST_SUITE_P(
    SeededFaultPlans, ChaosTest,
    ::testing::Combine(::testing::Values(Algorithm::kTwoWayCascade,
                                         Algorithm::kAllReplicate,
                                         Algorithm::kControlledReplicate,
                                         Algorithm::kControlledReplicateInLimit),
                       ::testing::Bool()),
    CaseName);

// Out-of-core chaos: the same worlds with a shuffle budget so small that
// every mapper chunk flushes its buckets as sorted spill runs and every
// reducer k-way merges them back. The fault-free baseline inside
// RunChaosWorld stays pinned to the in-memory shuffle, so each world
// asserts the spill path byte-identical against BOTH the brute-force
// oracle and the in-memory run — while the seeded plan also faults the
// spill flushes themselves (FaultPhase::kSpill).
TEST(SpillChaosTest, TinyBudgetsStayByteIdenticalUnderFaults) {
  const uint64_t base = SeedBase();
  ThreadPool pool(4);
  constexpr Algorithm kAlgorithms[] = {
      Algorithm::kTwoWayCascade, Algorithm::kAllReplicate,
      Algorithm::kControlledReplicate,
      Algorithm::kControlledReplicateInLimit};
  constexpr PredicateMix kMixes[] = {PredicateMix::kOverlapOnly,
                                     PredicateMix::kRangeOnly,
                                     PredicateMix::kHybrid};
  // One byte forces every non-empty chunk out of core; the larger budgets
  // leave a mix of spilled and resident chunks in one shuffle.
  constexpr int64_t kBudgets[] = {1, 512, 8 * 1024};

  ChaosOutcome total;
  for (int i = 0; i < 12; ++i) {
    WorldConfig config;
    config.shape = static_cast<QueryShape>(i % 4);
    config.mix = kMixes[i % 3];
    config.integer_coords = (i % 2 == 1);
    config.seed = base * 1000003 + static_cast<uint64_t>(i) * 7919 + 29;

    ChaosOptions options;
    options.fault_seed = base * 6364136223846793005ull +
                         static_cast<uint64_t>(i) * 104729 + 11;
    options.pool = (i % 2 == 0) ? &pool : nullptr;
    options.shuffle_memory_budget = kBudgets[i % 3];

    const ChaosOutcome outcome = testing::RunChaosWorld(
        config, kAlgorithms[i % 4], options);
    EXPECT_TRUE(outcome.ok())
        << AlgorithmName(kAlgorithms[i % 4]) << " spill world " << i
        << " budget " << options.shuffle_memory_budget << " seed "
        << config.seed << " fault_seed " << options.fault_seed << ": "
        << outcome.mismatch;
    if (!outcome.ok()) break;

    total.retries += outcome.retries;
    total.spilled_runs += outcome.spilled_runs;
    total.spill_flush_retries += outcome.spill_flush_retries;
    total.spill_wasted_flush_bytes += outcome.spill_wasted_flush_bytes;
  }

  EXPECT_GT(total.spilled_runs, 0) << "no chunk ever went out of core";
  EXPECT_GT(total.spill_flush_retries, 0)
      << "no spill flush was ever faulted";
  EXPECT_GT(total.spill_wasted_flush_bytes, 0)
      << "no half-staged flush was ever discarded";
}

// Pure spill parity, no faults at all: a 1-byte budget (everything out of
// core, maximum merge width) must reproduce the in-memory run exactly.
TEST(SpillChaosTest, FaultFreeSpillMatchesInMemory) {
  for (const Algorithm algorithm :
       {Algorithm::kTwoWayCascade, Algorithm::kControlledReplicate}) {
    WorldConfig config;
    config.mix = PredicateMix::kHybrid;
    config.seed = SeedBase() * 131 + 71;

    ChaosOptions options;
    options.crash_prob = 0;
    options.flaky_prob = 0;
    options.slow_prob = 0;
    options.shuffle_memory_budget = 1;

    const ChaosOutcome outcome =
        testing::RunChaosWorld(config, algorithm, options);
    EXPECT_TRUE(outcome.ok())
        << AlgorithmName(algorithm) << ": " << outcome.mismatch;
    EXPECT_GT(outcome.spilled_runs, 0);
    EXPECT_EQ(outcome.spill_flush_retries, 0);
  }
}

// Targeted injection: attempts to flush spill runs crash outright and die
// mid-flush (half the buckets staged, then the stage is dropped). The
// retried flush must leave no phantom bytes and the merged output must
// still match the oracle and the in-memory baseline.
TEST(SpillChaosTest, CrashMidSpillFlushRecovers) {
  FaultPlan plan;  // No seeded layer: only the exact injected faults fire.
  plan.Inject(FaultPhase::kSpill, 0, 0, FaultKind::kCrash);
  plan.Inject(FaultPhase::kSpill, 0, 1, FaultKind::kFlakyIo);  // Double hit.
  plan.Inject(FaultPhase::kSpill, 1, 0, FaultKind::kFlakyIo);
  plan.Inject(FaultPhase::kSpill, 2, 0, FaultKind::kSlow);

  WorldConfig config;
  config.shape = QueryShape::kChain4;
  config.mix = PredicateMix::kHybrid;
  config.seed = SeedBase() * 977 + 3;

  ChaosOptions options;
  options.shuffle_memory_budget = 1;  // Every chunk must flush.
  options.fault_plan = &plan;

  const ChaosOutcome outcome = testing::RunChaosWorld(
      config, Algorithm::kControlledReplicate, options);
  EXPECT_TRUE(outcome.ok()) << outcome.mismatch;
  EXPECT_GT(outcome.spilled_runs, 0);
  // Chunk 0 faults twice, chunk 1 once — in every job of the cascade.
  EXPECT_GE(outcome.spill_flush_retries, 3);
  EXPECT_GT(outcome.spill_wasted_flush_bytes, 0)
      << "the mid-flush abort never staged partial buckets";
}

// Targeted injection: every C-Rep reducer dies once mid-reduce (flaky I/O
// after half its inbox, output discarded) and then straggles, so a
// speculative duplicate reduces its whole inbox before the original
// commits. The dedup counters are attempt-scoped: the discarded attempts'
// ownership checks must not reach JobStats, so the faulted run reports
// exactly the fault-free run's counts.
TEST(ReduceChaosTest, CrepReduceCrashKeepsDedupCountsExactlyOnce) {
  FaultPlan plan;  // No seeded layer: only the exact injected faults fire.
  for (int64_t reducer = 0; reducer < 16; ++reducer) {
    plan.Inject(FaultPhase::kReduce, reducer, 0, FaultKind::kFlakyIo);
    plan.Inject(FaultPhase::kReduce, reducer, 1, FaultKind::kSlow);
  }

  WorldConfig config;
  config.shape = QueryShape::kChain3;
  config.max_rects_per_relation = 80;
  config.seed = SeedBase() * 5 + 4;  // seed % 5 == 4: a 4x4 grid.

  ChaosOptions options;
  options.fault_plan = &plan;
  for (bool pooled : {false, true}) {
    SCOPED_TRACE(pooled ? "pool" : "serial");
    std::unique_ptr<ThreadPool> pool;
    if (pooled) pool = std::make_unique<ThreadPool>(4);
    options.pool = pool.get();
    const ChaosOutcome outcome = testing::RunChaosWorld(
        config, Algorithm::kControlledReplicate, options);
    EXPECT_TRUE(outcome.ok()) << outcome.mismatch;
    EXPECT_GT(outcome.retries, 0);
    EXPECT_GT(outcome.speculative, 0);
    const auto checks = outcome.user_counters.find("dedup_tuple_checks");
    ASSERT_NE(checks, outcome.user_counters.end())
        << "dedup_tuple_checks missing from the faulted run's counters";
    EXPECT_GT(checks->second, 0);
    EXPECT_GE(checks->second, outcome.user_counters.at("dedup_owned"));
  }
}

// The same fault plan must recover identically with and without a worker
// pool: the plan is keyed by (phase, task, attempt), never by thread.
TEST(ChaosDeterminism, PoolInvariantFaultAccounting) {
  WorldConfig config;
  config.mix = PredicateMix::kHybrid;
  config.seed = SeedBase() * 31 + 5;

  ChaosOptions serial_options;
  serial_options.fault_seed = SeedBase() + 42;
  const ChaosOutcome serial = testing::RunChaosWorld(
      config, Algorithm::kControlledReplicate, serial_options);
  ASSERT_TRUE(serial.ok()) << serial.mismatch;

  ThreadPool pool(4);
  ChaosOptions pool_options = serial_options;
  pool_options.pool = &pool;
  const ChaosOutcome threaded = testing::RunChaosWorld(
      config, Algorithm::kControlledReplicate, pool_options);
  ASSERT_TRUE(threaded.ok()) << threaded.mismatch;

  EXPECT_EQ(serial.attempts, threaded.attempts);
  EXPECT_EQ(serial.retries, threaded.retries);
  EXPECT_EQ(serial.speculative, threaded.speculative);
  EXPECT_EQ(serial.wasted_records, threaded.wasted_records);
  EXPECT_EQ(serial.num_tuples, threaded.num_tuples);
  EXPECT_DOUBLE_EQ(serial.backoff_seconds, threaded.backoff_seconds);
}

// Scheduler-core chaos: fleets of concurrent mixed-algorithm jobs whose
// in-flight task attempts are killed by per-job fault plans while queued
// submissions are cancelled underneath them. Every surviving job must be
// byte-identical to its serial fault-free baseline, with stats attributed
// to the right submission id.
TEST(SchedulerChaosTest, ConcurrentJobFleetsSurviveKillsAndCancels) {
  const uint64_t base = SeedBase();
  ThreadPool pool(4);

  testing::SchedulerChaosOutcome total;
  for (int world = 0; world < 6; ++world) {
    testing::SchedulerChaosOptions options;
    options.base_seed = base * 424243 + static_cast<uint64_t>(world) * 131 + 7;
    options.num_jobs = 8;
    options.pool = (world % 2 == 0) ? &pool : nullptr;
    options.max_in_flight = 2 + world % 3;
    // Worlds alternate between pure kill-chaos and kill+cancel chaos.
    options.cancel_every = (world % 3 == 0) ? 0 : 3;

    const testing::SchedulerChaosOutcome outcome =
        testing::RunSchedulerChaosWorld(options);
    EXPECT_TRUE(outcome.ok())
        << "world " << world << " base_seed " << options.base_seed << ": "
        << outcome.mismatch;
    if (!outcome.ok()) break;

    total.attempts += outcome.attempts;
    total.retries += outcome.retries;
    total.speculative += outcome.speculative;
    total.wasted_records += outcome.wasted_records;
    total.cancelled += outcome.cancelled;
    total.survived += outcome.survived;
  }

  // The sweep must have exercised all three chaos axes: kills that forced
  // retries, discarded attempt output, and jobs that actually survived.
  EXPECT_GT(total.retries, 0) << "no in-flight attempt was ever killed";
  EXPECT_GT(total.wasted_records, 0) << "no attempt output was discarded";
  EXPECT_GT(total.survived, 0);
}

}  // namespace
}  // namespace mwsj
