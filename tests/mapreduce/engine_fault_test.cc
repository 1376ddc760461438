// Fault injection and recovery semantics of the engine: deterministic
// FaultPlan decisions, attempt-scoped discarding (emits, user counters,
// spill runs), bounded retry with injectable backoff clock, straggler
// speculation, and retry-exhaustion aborts.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/str_format.h"
#include "common/trace.h"
#include "mapreduce/engine.h"
#include "mapreduce/fault.h"

namespace mwsj {
namespace {

using FaultJob = MapReduceJob<int, int, int, std::pair<int, int>>;

// A small deterministic job: 12 input records → 12 single-record map
// chunks (task ids 0..11), 4 reducers (task ids 0..3), with a user
// counter bumped once per map record and once per reduce group. Small on
// purpose: explicit Inject calls can then target exact (task, attempt)
// keys.
struct JobRun {
  std::vector<std::pair<int, int>> output;
  JobStats stats;
};

// kOneKey: key v % 4, one key per reducer (the spatial jobs' shape).
// kTwoKeys: key v % 8 partitioned k % 4, so each reducer holds two keys,
// and they arrive out of key order (reducer 1 sees key 5 before key 1).
enum class KeyShape { kOneKey, kTwoKeys };

JobRun RunFaultJob(const ExecutionContext& ctx,
                   KeyShape shape = KeyShape::kOneKey) {
  const std::vector<int> input = {5, 3, 11, 0, 7, 2, 9, 4, 1, 10, 6, 8};
  const int num_keys = shape == KeyShape::kOneKey ? 4 : 8;
  FaultJob job("fault_job", 4);
  job.set_partition([](const int& k) { return k % 4; });
  job.set_map([num_keys](const int& v, FaultJob::Emitter& emit) {
    emit.IncrementCounter("mapped", 1);
    emit.Emit(v % num_keys, v);
  });
  job.set_reduce([](const int& k, std::span<const int> vals,
                    FaultJob::OutEmitter& out) {
    out.IncrementCounter("groups", 1);
    int sum = 0;
    for (int v : vals) sum += v;
    out.Emit({k, sum});
  });
  JobRun run;
  run.stats = job.Run(std::span<const int>(input), &run.output, ctx);
  return run;
}

// Both key shapes, each under an unlimited shuffle budget and under a
// 1-byte budget that spills every map chunk.
struct ShapeAndBudget {
  KeyShape shape;
  int64_t budget;
};
constexpr ShapeAndBudget kShapesAndBudgets[] = {
    {KeyShape::kOneKey, -1},
    {KeyShape::kOneKey, 1},
    {KeyShape::kTwoKeys, -1},
    {KeyShape::kTwoKeys, 1},
};

TEST(FaultPlanTest, SeededPlanIsAPureFunctionOfItsKey) {
  const FaultPlan a = FaultPlan::Seeded(99, 0.2, 0.2, 0.1);
  const FaultPlan b = FaultPlan::Seeded(99, 0.2, 0.2, 0.1);
  const FaultPlan other = FaultPlan::Seeded(100, 0.2, 0.2, 0.1);
  int faults = 0, diverged = 0;
  for (int phase = 0; phase < 2; ++phase) {
    for (int64_t task = 0; task < 200; ++task) {
      for (int attempt = 0; attempt < 3; ++attempt) {
        const FaultPhase p = static_cast<FaultPhase>(phase);
        EXPECT_EQ(a.At(p, task, attempt), b.At(p, task, attempt));
        if (a.At(p, task, attempt) != FaultKind::kNone) ++faults;
        if (a.At(p, task, attempt) != other.At(p, task, attempt)) ++diverged;
      }
    }
  }
  // ~50% of 1200 keys should fault, and a different seed should disagree
  // on a healthy fraction of them.
  EXPECT_GT(faults, 400);
  EXPECT_LT(faults, 800);
  EXPECT_GT(diverged, 200);
}

TEST(FaultPlanTest, SeededFaultsAreBoundedByMaxFaultedAttempts) {
  FaultPlan plan = FaultPlan::Seeded(7, 0.5, 0.3, 0.2);  // Faults everywhere.
  for (int64_t task = 0; task < 100; ++task) {
    EXPECT_EQ(plan.At(FaultPhase::kMap, task, 3), FaultKind::kNone);
    EXPECT_EQ(plan.At(FaultPhase::kReduce, task, 7), FaultKind::kNone);
  }
  plan.set_max_faulted_attempts(1);
  for (int64_t task = 0; task < 100; ++task) {
    EXPECT_EQ(plan.At(FaultPhase::kMap, task, 1), FaultKind::kNone);
  }
}

TEST(FaultPlanTest, InjectOverridesTheSeededLayer) {
  FaultPlan plan;
  plan.Inject(FaultPhase::kReduce, 2, 1, FaultKind::kFlakyIo);
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.At(FaultPhase::kReduce, 2, 1), FaultKind::kFlakyIo);
  EXPECT_EQ(plan.At(FaultPhase::kReduce, 2, 0), FaultKind::kNone);
  EXPECT_EQ(plan.At(FaultPhase::kMap, 2, 1), FaultKind::kNone);
}

TEST(FaultPlanTest, ParseRoundTripsAndRejectsBadSpecs) {
  const StatusOr<FaultPlan> plan =
      FaultPlan::Parse("seed=42,crash=0.25,flaky=0.1,slow=0.05,bound=2");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().seed(), 42u);
  EXPECT_FALSE(plan.value().empty());
  FaultPlan same = FaultPlan::Seeded(42, 0.25, 0.1, 0.05);
  same.set_max_faulted_attempts(2);
  for (int64_t task = 0; task < 50; ++task) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      EXPECT_EQ(plan.value().At(FaultPhase::kMap, task, attempt),
                same.At(FaultPhase::kMap, task, attempt));
    }
  }
  EXPECT_FALSE(FaultPlan::Parse("crash=2.0").ok());       // Out of [0,1].
  EXPECT_FALSE(FaultPlan::Parse("crash=nan").ok());       // NaN is not in it.
  EXPECT_FALSE(FaultPlan::Parse("crash=0.6,flaky=0.6").ok());  // Sum > 1.
  EXPECT_FALSE(FaultPlan::Parse("frobnicate=1").ok());    // Unknown key.
  EXPECT_FALSE(FaultPlan::Parse("seed=abc").ok());        // Unparseable.
  // seed= and bound= are parsed whole into their own types: a value that
  // would wrap, a sign where none belongs, or trailing characters are
  // rejected rather than run as some other plan.
  EXPECT_TRUE(FaultPlan::Parse("seed=18446744073709551615").ok());
  EXPECT_FALSE(FaultPlan::Parse("seed=18446744073709551616").ok());
  EXPECT_FALSE(FaultPlan::Parse("seed=-1").ok());
  EXPECT_FALSE(FaultPlan::Parse("seed=7x").ok());
  EXPECT_FALSE(FaultPlan::Parse("seed=").ok());
  EXPECT_TRUE(FaultPlan::Parse("bound=0").ok());
  EXPECT_TRUE(FaultPlan::Parse("bound=2147483647").ok());
  EXPECT_FALSE(FaultPlan::Parse("bound=4294967297").ok());  // Was bound=1.
  EXPECT_FALSE(FaultPlan::Parse("bound=2147483648").ok());
  EXPECT_FALSE(FaultPlan::Parse("bound=-1").ok());
  EXPECT_FALSE(FaultPlan::Parse("bound=3junk").ok());
  EXPECT_FALSE(FaultPlan::Parse("bound= 3").ok());
  EXPECT_EQ(FaultPlan::Parse("bound=4294967297").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(FaultPlan::Parse("crash=0.1x").ok());
}

TEST(EngineFaultTest, ZeroFaultPlanMatchesPlanFreeRunExactly) {
  const JobRun plain = RunFaultJob(ExecutionContext());
  const FaultPlan zero = FaultPlan::Seeded(123, 0.0, 0.0, 0.0);
  EXPECT_TRUE(zero.empty());
  ExecutionContext ctx;
  ctx.faults = &zero;
  const JobRun planned = RunFaultJob(ctx);

  EXPECT_EQ(plain.output, planned.output);
  EXPECT_EQ(plain.stats.intermediate_records,
            planned.stats.intermediate_records);
  EXPECT_EQ(plain.stats.user_counters, planned.stats.user_counters);
  // Task/attempt accounting is filled even without a plan (attempts ==
  // tasks on a clean run) and must be identical in both runs.
  EXPECT_EQ(plain.stats.map_faults.tasks, planned.stats.map_faults.tasks);
  EXPECT_EQ(plain.stats.map_faults.attempts,
            planned.stats.map_faults.attempts);
  EXPECT_EQ(plain.stats.map_faults.tasks, plain.stats.map_faults.attempts);
  EXPECT_FALSE(plain.stats.AnyFaults());
  EXPECT_FALSE(planned.stats.AnyFaults());
}

TEST(EngineFaultTest, InjectedFaultsRecoverWithIdenticalOutputAndCounters) {
  for (const auto& [shape, budget] : kShapesAndBudgets) {
    SCOPED_TRACE(StrFormat("two keys per reducer: %d, budget: %lld",
                           shape == KeyShape::kTwoKeys,
                           static_cast<long long>(budget)));
    ExecutionContext baseline_ctx;
    baseline_ctx.options.shuffle_memory_budget = budget;
    const JobRun baseline = RunFaultJob(baseline_ctx, shape);

    FaultPlan plan;
    plan.Inject(FaultPhase::kMap, 0, 0, FaultKind::kCrash);
    plan.Inject(FaultPhase::kMap, 5, 0, FaultKind::kFlakyIo);
    plan.Inject(FaultPhase::kMap, 5, 1, FaultKind::kCrash);
    plan.Inject(FaultPhase::kMap, 7, 0, FaultKind::kSlow);
    plan.Inject(FaultPhase::kReduce, 1, 0, FaultKind::kFlakyIo);
    plan.Inject(FaultPhase::kReduce, 3, 0, FaultKind::kSlow);
    // Spill-flush faults (task id = chunk index; each 1-record chunk spills
    // one run to reducer v % 4 under the 1-byte budget): chunk 2 (v = 11,
    // reducer 3) crashes; chunk 3 (v = 0, reducer 0) dies flaky after its
    // first two reducers, so it builds its one run and drops it; chunk 6
    // (v = 9, reducer 1) straggles, so a speculative duplicate builds its
    // run and drops it. An unlimited budget never flushes.
    plan.Inject(FaultPhase::kSpill, 2, 0, FaultKind::kCrash);
    plan.Inject(FaultPhase::kSpill, 3, 0, FaultKind::kFlakyIo);
    plan.Inject(FaultPhase::kSpill, 6, 0, FaultKind::kSlow);
    RetryPolicy retry;
    retry.sleep = [](double) {};
    ExecutionContext ctx = baseline_ctx;
    ctx.faults = &plan;
    ctx.retry = &retry;
    const JobRun faulted = RunFaultJob(ctx, shape);

    // Exactly-once: output, shuffle accounting, and user counters are
    // byte-identical to the fault-free run despite 6 faulted task attempts
    // (and 3 faulted flush attempts when spilling).
    EXPECT_EQ(faulted.output, baseline.output);
    EXPECT_EQ(faulted.stats.intermediate_records,
              baseline.stats.intermediate_records);
    EXPECT_EQ(faulted.stats.intermediate_bytes,
              baseline.stats.intermediate_bytes);
    EXPECT_EQ(faulted.stats.per_reducer_records,
              baseline.stats.per_reducer_records);
    EXPECT_EQ(faulted.stats.user_counters, baseline.stats.user_counters);
    // The runs the reducers merged are exactly the fault-free run's: no
    // discarded flush attempt's runs survive in the run store.
    const SpillStats& spill = faulted.stats.spill;
    const SpillStats& clean = baseline.stats.spill;
    EXPECT_EQ(spill.spilled_chunks, clean.spilled_chunks);
    EXPECT_EQ(spill.spilled_runs, clean.spilled_runs);
    EXPECT_EQ(spill.spilled_raw_bytes, clean.spilled_raw_bytes);
    EXPECT_EQ(spill.spilled_stored_bytes, clean.spilled_stored_bytes);
    if (budget > 0) {
      EXPECT_EQ(clean.spilled_chunks, 12);
      EXPECT_EQ(clean.spilled_runs, 12);
      EXPECT_EQ(spill.flush_retries, 2);  // The crash and the flaky flush.
      EXPECT_GT(spill.wasted_flush_bytes, 0);
      // Two dropped one-pair runs, each stored raw ((int, int) has no
      // SpillColumns) at its sizeof(K) + sizeof(V) intermediate bytes.
      EXPECT_EQ(spill.wasted_flush_bytes, 2 * 8);
    } else {
      EXPECT_FALSE(spill.active());
      EXPECT_EQ(spill.flush_retries, 0);
      EXPECT_EQ(spill.wasted_flush_bytes, 0);
    }

    // And the wasted work is all accounted: 12 map tasks, 4 faulted map
    // attempts (crash + flaky + crash = 3 retries, 1 speculative), 4 reduce
    // tasks with 1 retry + 1 speculative.
    EXPECT_TRUE(faulted.stats.AnyFaults());
    EXPECT_EQ(faulted.stats.map_faults.tasks, 12);
    EXPECT_EQ(faulted.stats.map_faults.attempts, 12 + 4);
    EXPECT_EQ(faulted.stats.map_faults.retries, 3);
    EXPECT_EQ(faulted.stats.map_faults.speculative, 1);
    EXPECT_EQ(faulted.stats.reduce_faults.tasks, 4);
    EXPECT_EQ(faulted.stats.reduce_faults.attempts, 4 + 2);
    EXPECT_EQ(faulted.stats.reduce_faults.retries, 1);
    EXPECT_EQ(faulted.stats.reduce_faults.speculative, 1);
    // The flaky map attempt processed (and discarded) half of a 1-record
    // chunk = 0 records, but the speculative attempts re-emitted real pairs.
    EXPECT_GT(faulted.stats.map_faults.wasted_records, 0);
    EXPECT_GT(faulted.stats.reduce_faults.wasted_records, 0);
    // Reducer 1's flaky attempt reduces only the groups starting in the
    // first half of its key-sorted records (key 1, one output); reducer 3's
    // speculative duplicate reduces all of its groups (one or two).
    EXPECT_EQ(faulted.stats.reduce_faults.wasted_records,
              shape == KeyShape::kOneKey ? 1 + 1 : 1 + 2);
  }
}

TEST(EngineFaultTest, BackoffFollowsExponentialScheduleOnVirtualClock) {
  FaultPlan plan;
  plan.Inject(FaultPhase::kMap, 3, 0, FaultKind::kCrash);
  plan.Inject(FaultPhase::kMap, 3, 1, FaultKind::kCrash);
  plan.Inject(FaultPhase::kMap, 3, 2, FaultKind::kCrash);
  RetryPolicy retry;
  retry.backoff_initial_seconds = 1.0;  // Would stall for 7s if real.
  retry.backoff_multiplier = 2.0;
  std::vector<double> sleeps;
  retry.sleep = [&sleeps](double s) { sleeps.push_back(s); };
  ExecutionContext ctx;
  ctx.faults = &plan;
  ctx.retry = &retry;
  const JobRun run = RunFaultJob(ctx);

  ASSERT_EQ(sleeps, (std::vector<double>{1.0, 2.0, 4.0}));
  EXPECT_DOUBLE_EQ(run.stats.map_faults.backoff_seconds, 7.0);
  EXPECT_EQ(run.stats.map_faults.retries, 3);
  // BackoffSeconds itself, for good measure.
  EXPECT_DOUBLE_EQ(BackoffSeconds(retry, 0), 1.0);
  EXPECT_DOUBLE_EQ(BackoffSeconds(retry, 4), 16.0);
}

TEST(EngineFaultDeathTest, MapRetryExhaustionAbortsTheJob) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  FaultPlan plan;
  for (int attempt = 0; attempt < 4; ++attempt) {
    plan.Inject(FaultPhase::kMap, 2, attempt, FaultKind::kCrash);
  }
  RetryPolicy retry;
  retry.sleep = [](double) {};
  ExecutionContext ctx;
  ctx.faults = &plan;
  ctx.retry = &retry;
  EXPECT_DEATH(RunFaultJob(ctx),
               "MapReduceJob 'fault_job': map task 2 failed 4 attempts");
}

TEST(EngineFaultDeathTest, ReduceRetryExhaustionAbortsTheJob) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  FaultPlan plan;
  plan.Inject(FaultPhase::kReduce, 1, 0, FaultKind::kCrash);
  plan.Inject(FaultPhase::kReduce, 1, 1, FaultKind::kFlakyIo);
  RetryPolicy retry;
  retry.max_attempts = 2;  // Tight budget: two failures exhaust it.
  retry.sleep = [](double) {};
  ExecutionContext ctx;
  ctx.faults = &plan;
  ctx.retry = &retry;
  EXPECT_DEATH(RunFaultJob(ctx),
               "MapReduceJob 'fault_job': reduce task 1 failed 2 attempts");
}

TEST(EngineFaultTest, DfsPartFilesAreCommittedExactlyOnce) {
  for (const auto& [shape, budget] : kShapesAndBudgets) {
    SCOPED_TRACE(StrFormat("two keys per reducer: %d, budget: %lld",
                           shape == KeyShape::kTwoKeys,
                           static_cast<long long>(budget)));
    ExecutionContext baseline_ctx;
    baseline_ctx.options.shuffle_memory_budget = budget;
    const JobRun baseline = RunFaultJob(baseline_ctx, shape);
    ASSERT_EQ(baseline.stats.per_reducer_records.size(), 4u);

    FaultPlan plan = FaultPlan::Seeded(17, 0.2, 0.15, 0.1);
    RetryPolicy retry;
    retry.sleep = [](double) {};
    ExecutionContext ctx = baseline_ctx;
    ctx.faults = &plan;
    ctx.retry = &retry;
    const JobRun faulted = RunFaultJob(ctx, shape);
    // The seeded plan does discard attempts, so the checks below bite.
    ASSERT_GT(faulted.stats.map_faults.retries +
                  faulted.stats.reduce_faults.retries,
              0);

    EXPECT_EQ(faulted.output, baseline.output);
    // Every reducer's part committed once, by the committing attempt only:
    // the output ledger matches the fault-free run.
    EXPECT_EQ(faulted.stats.reduce_output_records,
              baseline.stats.reduce_output_records);
    EXPECT_EQ(faulted.stats.reduce_output_bytes,
              baseline.stats.reduce_output_bytes);
    EXPECT_EQ(faulted.stats.per_reducer_records,
              baseline.stats.per_reducer_records);
    // And every spill run committed once into its map shard: the run store
    // the reducers merged equals the fault-free run's.
    EXPECT_EQ(faulted.stats.spill.spilled_runs,
              baseline.stats.spill.spilled_runs);
    EXPECT_EQ(faulted.stats.spill.spilled_raw_bytes,
              baseline.stats.spill.spilled_raw_bytes);
    EXPECT_EQ(faulted.stats.spill.spilled_stored_bytes,
              baseline.stats.spill.spilled_stored_bytes);
  }
}

TEST(EngineFaultTest, TracerMarksFailedAndSpeculativeAttempts) {
  FaultPlan plan;
  plan.Inject(FaultPhase::kMap, 4, 0, FaultKind::kCrash);
  plan.Inject(FaultPhase::kReduce, 0, 0, FaultKind::kSlow);
  RetryPolicy retry;
  retry.sleep = [](double) {};
  Tracer tracer;
  ExecutionContext ctx;
  ctx.tracer = &tracer;
  ctx.faults = &plan;
  ctx.retry = &retry;
  RunFaultJob(ctx);

  const std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"name\": \"map_attempt\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"reduce_attempt\""), std::string::npos);
  EXPECT_NE(json.find("\"failed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"speculative\": 1"), std::string::npos);
  // Committing tasks keep their regular span names.
  EXPECT_NE(json.find("\"name\": \"map_chunk\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"reduce_task\""), std::string::npos);
}

TEST(EngineFaultTest, SeededPlanIsThreadCountInvariant) {
  FaultPlan plan = FaultPlan::Seeded(31, 0.15, 0.15, 0.1);
  RetryPolicy retry;
  retry.sleep = [](double) {};
  ExecutionContext serial_ctx;
  serial_ctx.faults = &plan;
  serial_ctx.retry = &retry;
  const JobRun serial = RunFaultJob(serial_ctx);

  ThreadPool pool(4);
  ExecutionContext pool_ctx = serial_ctx;
  pool_ctx.pool = &pool;
  const JobRun threaded = RunFaultJob(pool_ctx);

  EXPECT_EQ(serial.output, threaded.output);
  EXPECT_EQ(serial.stats.map_faults.attempts, threaded.stats.map_faults.attempts);
  EXPECT_EQ(serial.stats.map_faults.retries, threaded.stats.map_faults.retries);
  EXPECT_EQ(serial.stats.reduce_faults.attempts,
            threaded.stats.reduce_faults.attempts);
  EXPECT_EQ(serial.stats.reduce_faults.wasted_records,
            threaded.stats.reduce_faults.wasted_records);
  EXPECT_EQ(serial.stats.user_counters, threaded.stats.user_counters);
}

}  // namespace
}  // namespace mwsj
