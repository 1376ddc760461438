// JobScheduler: submit/wait parity with the blocking calls (which carry
// no job id), FIFO admission with bounded queueing and cancellation,
// concurrent mixed-algorithm stress with per-job attribution, and
// DatasetCatalog reuse across repeat queries. The stress suite is what the CI
// scheduler-stress job runs under TSan (`ctest -R Scheduler`).

#include <gtest/gtest.h>

#include <cstdlib>
#include <future>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/dataset_catalog.h"
#include "core/records.h"
#include "core/runner.h"
#include "core/scheduler.h"
#include "mapreduce/fault.h"
#include "mapreduce/stats_json.h"
#include "queries/knn_mr.h"
#include "testing/world.h"

namespace mwsj {
namespace {

using testing::MakeWorldData;
using testing::MakeWorldQuery;
using testing::PredicateMix;
using testing::QueryShape;
using testing::WorldConfig;

uint64_t SeedBase() {
  const char* env = std::getenv("MWSJ_SCHED_SEED_BASE");
  return env != nullptr ? static_cast<uint64_t>(std::atoll(env)) : 0;
}

WorldConfig StressWorld(int i) {
  WorldConfig config;
  config.shape = static_cast<QueryShape>(i % 4);
  config.mix = static_cast<PredicateMix>(i % 3);
  config.integer_coords = (i % 2) == 1;
  config.seed = SeedBase() + 100 + static_cast<uint64_t>(i);
  return config;
}

TEST(SchedulerTest, SubmitWaitMatchesBlockingRunPerAlgorithm) {
  WorldConfig config;
  config.shape = QueryShape::kStar4;
  config.mix = PredicateMix::kHybrid;
  config.seed = SeedBase() + 7;
  const Query query = MakeWorldQuery(config);
  const auto data = MakeWorldData(config, query.num_relations());

  ThreadPool pool(4);
  SchedulerOptions sched_options;
  sched_options.pool = &pool;
  JobScheduler scheduler(sched_options);

  for (Algorithm algorithm :
       {Algorithm::kTwoWayCascade, Algorithm::kAllReplicate,
        Algorithm::kControlledReplicate,
        Algorithm::kControlledReplicateInLimit}) {
    RunnerOptions options;
    options.algorithm = algorithm;

    const StatusOr<JoinRunResult> serial = RunSpatialJoin(query, data, options);
    ASSERT_TRUE(serial.ok()) << serial.status().message();

    JobSpec spec;
    spec.query = query;
    spec.borrowed_relations = &data;
    spec.options = options;
    StatusOr<JobHandle> handle = scheduler.Submit(std::move(spec));
    ASSERT_TRUE(handle.ok()) << handle.status().message();
    const StatusOr<JoinRunResult>& scheduled = handle.value().Wait();
    ASSERT_TRUE(scheduled.ok()) << scheduled.status().message();

    EXPECT_EQ(scheduled.value().tuples, serial.value().tuples)
        << AlgorithmName(algorithm);
    EXPECT_EQ(scheduled.value().num_tuples, serial.value().num_tuples);
    // Scheduling must not change what the jobs computed, only attribute it.
    ASSERT_EQ(scheduled.value().stats.jobs.size(),
              serial.value().stats.jobs.size());
    for (size_t j = 0; j < serial.value().stats.jobs.size(); ++j) {
      EXPECT_EQ(scheduled.value().stats.jobs[j].intermediate_records,
                serial.value().stats.jobs[j].intermediate_records);
      EXPECT_EQ(scheduled.value().stats.jobs[j].per_reducer_records,
                serial.value().stats.jobs[j].per_reducer_records);
      EXPECT_EQ(scheduled.value().stats.jobs[j].job_id, handle.value().id());
      EXPECT_EQ(serial.value().stats.jobs[j].job_id, -1);
    }
  }

  const JobScheduler::Counters counters = scheduler.counters();
  EXPECT_EQ(counters.submitted, 4);
  EXPECT_EQ(counters.succeeded, 4);
  EXPECT_EQ(counters.failed, 0);
}

TEST(SchedulerTest, StandaloneRunsCarryNoJobId) {
  // RunSpatialJoin and RunKnnJoinMr called directly are not scheduler
  // jobs: no span carries a "job" arg, every JobStats keeps job_id -1 and
  // the stats JSON has no "job_id". The same job submitted through an
  // inline scheduler is tagged with its submission id.
  WorldConfig config;
  config.seed = SeedBase() + 11;
  const Query query = MakeWorldQuery(config);
  const auto data = MakeWorldData(config, query.num_relations());
  const Query knn_query = MakeChainQuery(2, Predicate::Overlap()).value();
  testing::KnnWorldConfig knn_config;
  knn_config.seed = SeedBase() + 11;
  const auto knn_data = testing::MakeKnnWorldData(knn_config);

  ThreadPool pool(2);
  Tracer tracer;
  RunnerOptions options;
  options.context.pool = &pool;
  options.context.tracer = &tracer;
  std::vector<StatusOr<JoinRunResult>> runs;
  for (Algorithm algorithm :
       {Algorithm::kBruteForce, Algorithm::kTwoWayCascade,
        Algorithm::kAllReplicate, Algorithm::kControlledReplicate,
        Algorithm::kControlledReplicateInLimit}) {
    options.algorithm = algorithm;
    runs.push_back(RunSpatialJoin(query, data, options));
  }
  runs.push_back(RunKnnJoinMr(knn_query, knn_data, 3, options));
  for (const StatusOr<JoinRunResult>& run : runs) {
    ASSERT_TRUE(run.ok()) << run.status().message();
    for (const JobStats& job : run.value().stats.jobs) {
      EXPECT_EQ(job.job_id, -1) << job.job_name;
    }
    EXPECT_EQ(RunStatsToJson(run.value().stats).find("\"job_id\""),
              std::string::npos);
  }
  const std::string trace = tracer.ToJson();
  EXPECT_NE(trace.find("\"knn_mr\""), std::string::npos);
  EXPECT_EQ(trace.find("\"job\": "), std::string::npos);

  SchedulerOptions sched_options;
  sched_options.pool = &pool;
  sched_options.tracer = &tracer;
  sched_options.inline_execution = true;
  JobScheduler scheduler(sched_options);
  JobSpec spec = MakeKnnMrJobSpec(knn_query, 3);
  spec.borrowed_relations = &knn_data;
  StatusOr<JobHandle> handle = scheduler.Submit(std::move(spec));
  ASSERT_TRUE(handle.ok()) << handle.status().message();
  const StatusOr<JoinRunResult>& scheduled = handle.value().Wait();
  ASSERT_TRUE(scheduled.ok()) << scheduled.status().message();
  EXPECT_EQ(scheduled.value().tuples, runs.back().value().tuples);
  for (const JobStats& job : scheduled.value().stats.jobs) {
    EXPECT_EQ(job.job_id, handle.value().id());
  }
  EXPECT_NE(tracer.ToJson().find("\"job\": " +
                                 std::to_string(handle.value().id())),
            std::string::npos);
}

TEST(SchedulerTest, ProcessShuffleBudgetClampsConcurrentJobs) {
  WorldConfig config;
  config.seed = SeedBase() + 23;
  const Query query = MakeWorldQuery(config);
  const auto data = MakeWorldData(config, query.num_relations());

  // A process-wide budget is divided across the driver slots so the fleet
  // cannot jointly exceed it; each job's resolved budget lands in
  // JobStats::spill.budget_bytes.
  SchedulerOptions sched_options;
  sched_options.shuffle_memory_budget = 40000;
  sched_options.max_in_flight = 4;
  JobScheduler scheduler(sched_options);

  auto submit = [&](int64_t job_budget) {
    JobSpec spec;
    spec.query = query;
    spec.borrowed_relations = &data;
    spec.options.algorithm = Algorithm::kControlledReplicate;
    spec.options.context.options.shuffle_memory_budget = job_budget;
    StatusOr<JobHandle> handle = scheduler.Submit(std::move(spec));
    EXPECT_TRUE(handle.ok()) << handle.status().message();
    const StatusOr<JoinRunResult>& result = handle.value().Wait();
    EXPECT_TRUE(result.ok()) << result.status().message();
    return result.value().stats;
  };

  // No per-job budget: the job runs under its 1/max_in_flight share.
  for (const JobStats& job : submit(0).jobs) {
    EXPECT_EQ(job.spill.budget_bytes, 10000) << job.job_name;
  }
  // A job asking for more than its share is clamped down to it.
  for (const JobStats& job : submit(1 << 30).jobs) {
    EXPECT_EQ(job.spill.budget_bytes, 10000) << job.job_name;
  }
  // A job asking for less keeps its own tighter budget.
  for (const JobStats& job : submit(2048).jobs) {
    EXPECT_EQ(job.spill.budget_bytes, 2048) << job.job_name;
  }

  // Inline execution runs one job at a time, so it gets the whole budget.
  SchedulerOptions inline_options;
  inline_options.shuffle_memory_budget = 40000;
  inline_options.inline_execution = true;
  JobScheduler inline_scheduler(inline_options);
  JobSpec spec;
  spec.query = query;
  spec.borrowed_relations = &data;
  spec.options.algorithm = Algorithm::kControlledReplicate;
  StatusOr<JobHandle> handle = inline_scheduler.Submit(std::move(spec));
  ASSERT_TRUE(handle.ok()) << handle.status().message();
  const StatusOr<JoinRunResult>& result = handle.value().Wait();
  ASSERT_TRUE(result.ok()) << result.status().message();
  for (const JobStats& job : result.value().stats.jobs) {
    EXPECT_EQ(job.spill.budget_bytes, 40000) << job.job_name;
  }
}

TEST(SchedulerTest, InlineExecutionResolvesBeforeSubmitReturns) {
  // inline_execution spawns no drivers; the job runs on the submitting
  // thread, so the handle is already terminal when Submit returns. This
  // is the mode the blocking wrapper uses for every RunSpatialJoin call.
  WorldConfig config;
  config.seed = SeedBase() + 11;
  const Query query = MakeWorldQuery(config);
  const auto data = MakeWorldData(config, query.num_relations());

  SchedulerOptions sched_options;
  sched_options.inline_execution = true;
  JobScheduler scheduler(sched_options);

  JobSpec spec;
  spec.query = query;
  spec.borrowed_relations = &data;
  StatusOr<JobHandle> handle = scheduler.Submit(std::move(spec));
  ASSERT_TRUE(handle.ok()) << handle.status().message();
  EXPECT_EQ(handle.value().status(), JobState::kSucceeded);

  const StatusOr<JoinRunResult> serial =
      RunSpatialJoin(query, data, RunnerOptions{});
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(handle.value().Wait().value().tuples, serial.value().tuples);

  const JobScheduler::Counters counters = scheduler.counters();
  EXPECT_EQ(counters.submitted, 1);
  EXPECT_EQ(counters.succeeded, 1);
}

TEST(SchedulerTest, RejectsMalformedSpecs) {
  JobScheduler scheduler(SchedulerOptions{});
  WorldConfig config;
  const Query query = MakeWorldQuery(config);
  const auto data = MakeWorldData(config, query.num_relations());

  {
    JobSpec spec;  // No query at all.
    EXPECT_EQ(scheduler.Submit(std::move(spec)).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    JobSpec spec;  // A query but no input source.
    spec.query = query;
    EXPECT_EQ(scheduler.Submit(std::move(spec)).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    JobSpec spec;  // Two input sources.
    spec.query = query;
    spec.dataset_names = {"a", "b", "c"};
    spec.borrowed_relations = &data;
    EXPECT_EQ(scheduler.Submit(std::move(spec)).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    JobSpec spec;  // Named datasets but no catalog anywhere.
    spec.query = query;
    spec.dataset_names = {"a", "b", "c"};
    EXPECT_EQ(scheduler.Submit(std::move(spec)).status().code(),
              StatusCode::kFailedPrecondition);
  }
  EXPECT_EQ(scheduler.counters().submitted, 0);
}

TEST(SchedulerTest, NameCountMustMatchQueryRelations) {
  DatasetCatalog catalog;
  catalog.PutDataset("only", std::vector<Rect>{});
  SchedulerOptions sched_options;
  sched_options.catalog = &catalog;
  JobScheduler scheduler(sched_options);

  JobSpec spec;
  spec.query = MakeWorldQuery(WorldConfig{});  // 3 relations.
  spec.dataset_names = {"only"};
  EXPECT_EQ(scheduler.Submit(std::move(spec)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SchedulerTest, BoundedAdmissionFifoAndQueuedCancel) {
  WorldConfig config;
  config.seed = SeedBase() + 3;
  const Query query = MakeWorldQuery(config);
  const auto data = MakeWorldData(config, query.num_relations());

  // Deterministically park the single driver: the first job crashes its
  // first map attempt, and the retry policy's injected sleep blocks until
  // the test releases it. Everything submitted meanwhile must stay queued.
  FaultPlan faults;
  faults.Inject(FaultPhase::kMap, 0, 0, FaultKind::kCrash);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  RetryPolicy retry;
  retry.sleep = [released](double) { released.wait(); };

  SchedulerOptions sched_options;
  sched_options.max_in_flight = 1;
  sched_options.max_queued = 2;
  JobScheduler scheduler(sched_options);

  JobSpec blocking;
  blocking.query = query;
  blocking.borrowed_relations = &data;
  blocking.options.context.faults = &faults;
  blocking.options.context.retry = &retry;
  StatusOr<JobHandle> first = scheduler.Submit(std::move(blocking));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().id(), 1);
  while (first.value().status() != JobState::kRunning) {
    std::this_thread::yield();
  }

  auto plain_spec = [&] {
    JobSpec spec;
    spec.query = query;
    spec.borrowed_relations = &data;
    return spec;
  };
  StatusOr<JobHandle> second = scheduler.Submit(plain_spec());
  StatusOr<JobHandle> third = scheduler.Submit(plain_spec());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(second.value().id(), 2);
  EXPECT_EQ(third.value().id(), 3);
  EXPECT_EQ(second.value().status(), JobState::kQueued);
  EXPECT_EQ(third.value().status(), JobState::kQueued);

  // Queue (capacity 2) is full: admission control rejects, not blocks.
  StatusOr<JobHandle> fourth = scheduler.Submit(plain_spec());
  EXPECT_EQ(fourth.status().code(), StatusCode::kFailedPrecondition);

  // A queued job can be cancelled; a second cancel is a no-op.
  EXPECT_TRUE(second.value().Cancel());
  EXPECT_FALSE(second.value().Cancel());
  EXPECT_EQ(second.value().status(), JobState::kCancelled);
  EXPECT_FALSE(first.value().Cancel());  // Running: never interrupted.

  release.set_value();
  scheduler.Drain();

  // The crashed-then-retried job still produced its exact output —
  // exactly-once semantics survive scheduling.
  const StatusOr<JoinRunResult>& recovered = first.value().Wait();
  ASSERT_TRUE(recovered.ok());
  const StatusOr<JoinRunResult> serial =
      RunSpatialJoin(query, data, RunnerOptions{});
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(recovered.value().tuples, serial.value().tuples);
  EXPECT_GT(recovered.value().stats.jobs.at(0).map_faults.retries, 0);

  EXPECT_EQ(second.value().Wait().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(third.value().Wait().ok());

  const JobScheduler::Counters counters = scheduler.counters();
  EXPECT_EQ(counters.submitted, 3);
  EXPECT_EQ(counters.rejected, 1);
  EXPECT_EQ(counters.succeeded, 2);
  EXPECT_EQ(counters.cancelled, 1);
}

TEST(SchedulerStressTest, ConcurrentMixedJobsMatchSerialByteForByte) {
  // >= 8 jobs with mixed algorithms, shapes, predicate mixes, and
  // coordinate regimes, all interleaved on one shared pool and tracer.
  // Every job's tuples must equal its own serial baseline, and stats and
  // trace spans must attribute to the right submission id.
  constexpr int kJobs = 12;
  const Algorithm kAlgorithms[] = {
      Algorithm::kTwoWayCascade, Algorithm::kAllReplicate,
      Algorithm::kControlledReplicate,
      Algorithm::kControlledReplicateInLimit};

  std::vector<Query> queries;
  std::vector<std::vector<std::vector<Rect>>> datasets;
  std::vector<StatusOr<JoinRunResult>> serial;
  for (int i = 0; i < kJobs; ++i) {
    const WorldConfig config = StressWorld(i);
    queries.push_back(MakeWorldQuery(config));
    datasets.push_back(MakeWorldData(config, queries.back().num_relations()));
    RunnerOptions options;
    options.algorithm = kAlgorithms[i % 4];
    serial.push_back(RunSpatialJoin(queries[i], datasets[i], options));
    ASSERT_TRUE(serial[i].ok()) << serial[i].status().message();
  }

  ThreadPool pool(4);
  Tracer tracer;
  SchedulerOptions sched_options;
  sched_options.pool = &pool;
  sched_options.tracer = &tracer;
  sched_options.max_in_flight = 4;
  JobScheduler scheduler(sched_options);

  std::vector<JobHandle> handles;
  for (int i = 0; i < kJobs; ++i) {
    JobSpec spec;
    spec.query = queries[i];
    spec.borrowed_relations = &datasets[i];
    spec.options.algorithm = kAlgorithms[i % 4];
    StatusOr<JobHandle> handle = scheduler.Submit(std::move(spec));
    ASSERT_TRUE(handle.ok()) << handle.status().message();
    handles.push_back(std::move(handle.value()));
  }

  for (int i = 0; i < kJobs; ++i) {
    const StatusOr<JoinRunResult>& result = handles[i].Wait();
    ASSERT_TRUE(result.ok()) << "job " << i << ": "
                             << result.status().message();
    EXPECT_EQ(result.value().tuples, serial[i].value().tuples) << "job " << i;
    EXPECT_EQ(result.value().num_tuples, serial[i].value().num_tuples);
    for (const JobStats& job : result.value().stats.jobs) {
      EXPECT_EQ(job.job_id, handles[i].id());
    }
    // The rendered stats carry the id too.
    EXPECT_NE(RunStatsToJson(result.value().stats)
                  .find("\"job_id\": " + std::to_string(handles[i].id())),
              std::string::npos);
  }

  // The shared trace distinguishes the interleaved jobs by a "job" arg.
  const std::string trace = tracer.ToJson();
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_NE(trace.find("\"job\": " + std::to_string(handles[i].id())),
              std::string::npos)
        << "no spans attributed to job " << handles[i].id();
  }

  const JobScheduler::Counters counters = scheduler.counters();
  EXPECT_EQ(counters.submitted, kJobs);
  EXPECT_EQ(counters.succeeded, kJobs);
}

// Value of the integer arg `"key": N` in a trace event line, if present.
std::optional<int64_t> TraceArg(const std::string& line,
                                const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  return std::stoll(line.substr(at + needle.size()));
}

// The dedup counts of one join round, from its span or its stats.
struct DedupCounts {
  int64_t checks = -1;
  int64_t owned = -1;
  bool operator==(const DedupCounts&) const = default;
};

std::ostream& operator<<(std::ostream& os, const DedupCounts& c) {
  return os << "{checks " << c.checks << ", owned " << c.owned << "}";
}

// Rebuilds the per-thread span nesting of `Tracer::ToJson()` output (one
// event per line; B/E pairs nest per tid) and returns the dedup args of
// every span that carries them (C-Rep's "crep_round2" stage, the
// "all_replicate" algorithm span), keyed by the "job" arg of its enclosing
// run span (-1 for a standalone run).
std::multimap<int64_t, DedupCounts> DedupSpanCounts(const std::string& json) {
  struct Span {
    std::string end_line;
    int parent;
  };
  std::vector<Span> spans;
  std::map<int64_t, std::vector<int>> open;  // tid -> open span stack
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    const std::optional<int64_t> tid = TraceArg(line, "tid");
    if (!tid.has_value()) continue;
    std::vector<int>& stack = open[*tid];
    if (line.find("\"ph\": \"B\"") != std::string::npos) {
      spans.push_back(Span{"", stack.empty() ? -1 : stack.back()});
      stack.push_back(static_cast<int>(spans.size()) - 1);
    } else if (line.find("\"ph\": \"E\"") != std::string::npos) {
      spans[static_cast<size_t>(stack.back())].end_line = line;
      stack.pop_back();
    }
  }
  std::multimap<int64_t, DedupCounts> out;
  for (const Span& span : spans) {
    const auto checks = TraceArg(span.end_line, "dedup_tuple_checks");
    const auto owned = TraceArg(span.end_line, "dedup_owned");
    if (!checks.has_value() && !owned.has_value()) continue;
    int64_t job = -1;
    for (int p = span.parent; p >= 0;) {
      const Span& ancestor = spans[static_cast<size_t>(p)];
      const auto id = TraceArg(ancestor.end_line, "job");
      if (id.has_value()) {
        job = *id;
        break;
      }
      p = ancestor.parent;
    }
    out.emplace(job, DedupCounts{checks.value_or(-1), owned.value_or(-1)});
  }
  return out;
}

// The dedup counters of the run's join-round job.
DedupCounts JoinRoundStatsCounts(const RunStats& stats) {
  for (const JobStats& job : stats.jobs) {
    if (job.job_name != "crep_round2_join" && job.job_name != "all_replicate") {
      continue;
    }
    const auto get = [&job](const char* name) {
      const auto it = job.user_counters.find(name);
      return it != job.user_counters.end() ? it->second : int64_t{-1};
    };
    return DedupCounts{get(kCounterDedupTupleChecks), get(kCounterDedupOwned)};
  }
  return DedupCounts{};
}

TEST(SchedulerStressTest, ConcurrentJobsReportOnlyTheirOwnDedupCounts) {
  // C-Rep and All-Replicate jobs over two different inputs run interleaved
  // on one pool and one tracer. Each must report exactly the dedup work it
  // reports when it runs alone — on exactly one span per job, and in its
  // JobStats counters — never a blend of several jobs' work.
  constexpr int kRepeats = 3;
  constexpr Algorithm kAlgorithms[] = {Algorithm::kControlledReplicate,
                                       Algorithm::kAllReplicate};
  std::vector<Query> queries;
  std::vector<std::vector<std::vector<Rect>>> datasets;
  for (int i = 0; i < 2; ++i) {
    WorldConfig config;
    config.shape = QueryShape::kChain3;
    config.max_rects_per_relation = 600;
    config.max_dim = 12.0 + 4.0 * i;
    config.seed = SeedBase() + 61 + static_cast<uint64_t>(i);
    queries.push_back(MakeWorldQuery(config));
    datasets.push_back(MakeWorldData(config, queries.back().num_relations()));
  }
  // One input per (algorithm, dataset) pair: input k runs kAlgorithms[k / 2]
  // over dataset k % 2.
  constexpr int kInputs = 4;
  std::vector<DedupCounts> alone;
  for (int k = 0; k < kInputs; ++k) {
    Tracer tracer;
    RunnerOptions options;
    options.algorithm = kAlgorithms[k / 2];
    options.context.tracer = &tracer;
    const StatusOr<JoinRunResult> solo =
        RunSpatialJoin(queries[k % 2], datasets[k % 2], options);
    ASSERT_TRUE(solo.ok()) << solo.status().message();
    alone.push_back(JoinRoundStatsCounts(solo.value().stats));
    // The owner window prunes every tuple the up-left routing cannot own,
    // so each ownership check the reducers run succeeds.
    EXPECT_EQ(alone[k].checks, alone[k].owned);
    EXPECT_GT(alone[k].owned, 0);
    const auto spans = DedupSpanCounts(tracer.ToJson());
    ASSERT_EQ(spans.size(), 1u) << "input " << k;
    EXPECT_EQ(spans.begin()->second, alone[k]) << "input " << k;
  }
  ASSERT_NE(alone[0], alone[1]);
  ASSERT_NE(alone[2], alone[3]);

  ThreadPool pool(4);
  Tracer tracer;
  SchedulerOptions sched_options;
  sched_options.pool = &pool;
  sched_options.tracer = &tracer;
  sched_options.max_in_flight = 2;
  JobScheduler scheduler(sched_options);

  std::vector<JobHandle> handles;
  for (int j = 0; j < kInputs * kRepeats; ++j) {
    const int k = j % kInputs;
    JobSpec spec;
    spec.query = queries[k % 2];
    spec.borrowed_relations = &datasets[k % 2];
    spec.options.algorithm = kAlgorithms[k / 2];
    StatusOr<JobHandle> handle = scheduler.Submit(std::move(spec));
    ASSERT_TRUE(handle.ok()) << handle.status().message();
    handles.push_back(std::move(handle.value()));
  }
  std::map<int64_t, int> input_of_job;
  for (int j = 0; j < kInputs * kRepeats; ++j) {
    const StatusOr<JoinRunResult>& result = handles[j].Wait();
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(JoinRoundStatsCounts(result.value().stats), alone[j % kInputs])
        << "job " << handles[j].id();
    input_of_job[handles[j].id()] = j % kInputs;
  }

  const auto spans = DedupSpanCounts(tracer.ToJson());
  ASSERT_EQ(spans.size(), static_cast<size_t>(kInputs * kRepeats));
  for (const auto& [job, input] : input_of_job) {
    EXPECT_EQ(spans.count(job), 1u) << "job " << job;
  }
  for (const auto& [job, counts] : spans) {
    ASSERT_TRUE(input_of_job.count(job)) << "span without its job: " << job;
    EXPECT_EQ(counts, alone[static_cast<size_t>(input_of_job[job])])
        << "job " << job;
  }
}

TEST(SchedulerCatalogTest, RepeatQueryReusesResidentArtifacts) {
  WorldConfig config;
  config.shape = QueryShape::kChain3;
  config.seed = SeedBase() + 41;
  const Query query = MakeWorldQuery(config);
  const auto data = MakeWorldData(config, query.num_relations());

  DatasetCatalog catalog;
  const std::vector<std::string> names = {"lakes", "roads", "parks"};
  for (size_t r = 0; r < names.size(); ++r) {
    catalog.PutDataset(names[r], data[r]);
  }

  SchedulerOptions sched_options;
  sched_options.catalog = &catalog;
  JobScheduler scheduler(sched_options);

  auto submit = [&](Algorithm algorithm) {
    JobSpec spec;
    spec.query = query;
    spec.dataset_names = names;
    spec.options.algorithm = algorithm;
    StatusOr<JobHandle> handle = scheduler.Submit(std::move(spec));
    EXPECT_TRUE(handle.ok()) << handle.status().message();
    return handle.value().Take();
  };

  // Cold run: bundle, grid, and C-Rep round-1 marking all miss and are
  // installed.
  const StatusOr<JoinRunResult> cold =
      submit(Algorithm::kControlledReplicate);
  ASSERT_TRUE(cold.ok()) << cold.status().message();
  EXPECT_EQ(cold.value().stats.catalog_hits, 0);
  EXPECT_EQ(cold.value().stats.catalog_misses, 3);

  // Identical repeat: everything is resident — ingest, grid build, and the
  // whole round-1 job are skipped, and the output is still identical.
  const StatusOr<JoinRunResult> warm =
      submit(Algorithm::kControlledReplicate);
  ASSERT_TRUE(warm.ok()) << warm.status().message();
  EXPECT_EQ(warm.value().stats.catalog_hits, 3);
  EXPECT_EQ(warm.value().stats.catalog_misses, 0);
  EXPECT_EQ(warm.value().tuples, cold.value().tuples);
  // One fewer MR job ran: round 1 was served from the catalog.
  EXPECT_EQ(warm.value().stats.jobs.size(),
            cold.value().stats.jobs.size() - 1);
  const std::string json = RunStatsToJson(warm.value().stats);
  EXPECT_NE(json.find("\"catalog\": {\"hits\": 3, \"misses\": 0}"),
            std::string::npos)
      << json;

  // C-Rep-L shares the grid and the round-1 marking with C-Rep (marking
  // does not depend on the limit options), but computes its own round 2.
  const StatusOr<JoinRunResult> limit =
      submit(Algorithm::kControlledReplicateInLimit);
  ASSERT_TRUE(limit.ok()) << limit.status().message();
  EXPECT_EQ(limit.value().stats.catalog_hits, 3);
  EXPECT_EQ(limit.value().tuples, cold.value().tuples);
}

TEST(SchedulerCatalogTest, RePutLeavesDataAndArtifactsResident) {
  WorldConfig config;
  config.shape = QueryShape::kChain3;
  config.seed = SeedBase() + 41;
  const Query query = MakeWorldQuery(config);
  const auto data = MakeWorldData(config, query.num_relations());

  DatasetCatalog catalog;
  const std::vector<std::string> names = {"lakes", "roads", "parks"};
  for (size_t r = 0; r < names.size(); ++r) {
    ASSERT_TRUE(catalog.PutDataset(names[r], data[r]).ok());
  }
  SchedulerOptions sched_options;
  sched_options.catalog = &catalog;
  JobScheduler scheduler(sched_options);

  auto submit = [&] {
    JobSpec spec;
    spec.query = query;
    spec.dataset_names = names;
    spec.options.algorithm = Algorithm::kControlledReplicate;
    StatusOr<JobHandle> handle = scheduler.Submit(std::move(spec));
    EXPECT_TRUE(handle.ok()) << handle.status().message();
    return handle.value().Take();
  };
  const StatusOr<JoinRunResult> cold = submit();
  ASSERT_TRUE(cold.ok()) << cold.status().message();
  EXPECT_EQ(cold.value().stats.catalog_misses, 3);

  // A dataset is registered once: putting other data under a registered
  // name is refused, and the repeat job is served the bundle, grid and
  // round-1 marking built from the original data.
  EXPECT_EQ(catalog.PutDataset("roads", data[0]).code(),
            StatusCode::kAlreadyExists);
  const StatusOr<JoinRunResult> warm = submit();
  ASSERT_TRUE(warm.ok()) << warm.status().message();
  EXPECT_EQ(warm.value().stats.catalog_hits, 3);
  EXPECT_EQ(warm.value().stats.catalog_misses, 0);
  EXPECT_EQ(warm.value().tuples, cold.value().tuples);
  EXPECT_EQ(catalog.hits(), 3);
  EXPECT_EQ(catalog.misses(), 3);
}

TEST(SchedulerCatalogTest, ConcurrentIdenticalJobsBuildEachArtifactOnce) {
  WorldConfig config;
  config.shape = QueryShape::kChain3;
  config.seed = SeedBase() + 43;
  const Query query = MakeWorldQuery(config);
  const auto data = MakeWorldData(config, query.num_relations());
  const std::vector<std::string> names = {"lakes", "roads", "parks"};
  constexpr int kJobs = 4;

  // Distinct artifact keys per algorithm: bundle + grid, plus the round-1
  // marking for C-Rep.
  for (const auto& [algorithm, distinct_keys] :
       {std::pair{Algorithm::kControlledReplicate, 3},
        std::pair{Algorithm::kAllReplicate, 2}}) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    DatasetCatalog catalog;
    for (size_t r = 0; r < names.size(); ++r) {
      catalog.PutDataset(names[r], data[r]);
    }
    SchedulerOptions sched_options;
    sched_options.catalog = &catalog;
    sched_options.max_in_flight = kJobs;
    std::vector<JobHandle> handles;
    {
      JobScheduler scheduler(sched_options);
      for (int j = 0; j < kJobs; ++j) {
        JobSpec spec;
        spec.query = query;
        spec.dataset_names = names;
        spec.options.algorithm = algorithm;
        StatusOr<JobHandle> handle = scheduler.Submit(std::move(spec));
        ASSERT_TRUE(handle.ok()) << handle.status().message();
        handles.push_back(std::move(handle).value());
      }
    }  // Destruction drains every submission.

    int64_t hits = 0;
    int64_t misses = 0;
    for (JobHandle& handle : handles) {
      const StatusOr<JoinRunResult>& result = handle.Wait();
      ASSERT_TRUE(result.ok()) << result.status().message();
      EXPECT_EQ(result.value().tuples, handles[0].Wait().value().tuples);
      hits += result.value().stats.catalog_hits;
      misses += result.value().stats.catalog_misses;
    }
    // Every key is built by exactly one job; the others wait and hit.
    EXPECT_EQ(misses, distinct_keys);
    EXPECT_EQ(hits, (kJobs - 1) * distinct_keys);
    EXPECT_EQ(catalog.misses(), misses);
    EXPECT_EQ(catalog.hits(), hits);
  }
}

TEST(SchedulerCatalogTest, CollidingCanonicalFormsNeverShareArtifacts) {
  // Regression (review): the canonical form relabels relations by sorted
  // name and forgets the name-to-position binding, while datasets bind by
  // position. These two queries share a canonical form — chain A-B-C vs.
  // the same chain registered [B, A, C] with conditions (B,A),(B,C) — and
  // are submitted over the same positional dataset list, yet they execute
  // different joins (d2⋈d3 vs. d1⋈d3 on the second condition). A key
  // without the rank permutation served the first job's C-Rep round-1
  // marking to the second, silently corrupting its output.
  QueryBuilder chain;
  chain.AddRelation("A");
  chain.AddRelation("B");
  chain.AddRelation("C");
  chain.AddOverlap(0, 1).AddOverlap(1, 2);
  const Query q1 = chain.Build().value();

  QueryBuilder relabeled;
  relabeled.AddRelation("B");
  relabeled.AddRelation("A");
  relabeled.AddRelation("C");
  relabeled.AddOverlap(0, 1).AddOverlap(0, 2);
  const Query q2 = relabeled.Build().value();
  ASSERT_EQ(q1.CanonicalKey(), q2.CanonicalKey());

  // Small rectangles relative to the 8x8 grid cells: saturated markings
  // (everything replicated everywhere) would mask a served-stale marking,
  // since over-replication is harmless after duplicate avoidance.
  WorldConfig config;
  config.seed = SeedBase() + 23;
  config.max_dim = 12.0;
  config.max_rects_per_relation = 80;
  const auto data = MakeWorldData(config, 3);

  RunnerOptions options;
  options.algorithm = Algorithm::kControlledReplicate;
  const StatusOr<JoinRunResult> serial1 = RunSpatialJoin(q1, data, options);
  const StatusOr<JoinRunResult> serial2 = RunSpatialJoin(q2, data, options);
  ASSERT_TRUE(serial1.ok());
  ASSERT_TRUE(serial2.ok());
  // The two submissions really compute different joins.
  ASSERT_NE(serial1.value().tuples, serial2.value().tuples);

  DatasetCatalog catalog;
  const std::vector<std::string> names = {"d1", "d2", "d3"};
  for (size_t r = 0; r < names.size(); ++r) {
    catalog.PutDataset(names[r], data[r]);
  }
  SchedulerOptions sched_options;
  sched_options.catalog = &catalog;
  JobScheduler scheduler(sched_options);

  auto submit = [&](const Query& query) {
    JobSpec spec;
    spec.query = query;
    spec.dataset_names = names;
    spec.options = options;
    StatusOr<JobHandle> handle = scheduler.Submit(std::move(spec));
    EXPECT_TRUE(handle.ok()) << handle.status().message();
    return handle.value().Take();
  };

  const StatusOr<JoinRunResult> first = submit(q1);
  const StatusOr<JoinRunResult> second = submit(q2);
  ASSERT_TRUE(first.ok()) << first.status().message();
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_EQ(first.value().tuples, serial1.value().tuples);
  EXPECT_EQ(second.value().tuples, serial2.value().tuples);
  // The second submission reuses only the (query-independent) bundle; its
  // grid and round-1 marking keys differ in the rank permutation, so the
  // first job's artifacts are not eligible.
  EXPECT_EQ(second.value().stats.catalog_hits, 1);
  EXPECT_EQ(second.value().stats.catalog_misses, 2);
}

TEST(SchedulerCatalogTest, SelfJoinRoleBindingsNeverShareArtifacts) {
  // The harder variant of the same trap: one dataset under one name in
  // every role, so even a rank-ordered dataset list renders identically.
  // A path centered at position 1 vs. position 0 shares the canonical
  // form and every dataset name, and only the rank permutation separates
  // the keys; the outputs differ in which tuple slot holds the center.
  QueryBuilder center1;
  center1.AddRelation("R");
  center1.AddRelation("R");
  center1.AddRelation("R");
  center1.AddOverlap(0, 1).AddOverlap(1, 2);
  const Query path1 = center1.Build().value();

  QueryBuilder center0;
  center0.AddRelation("R");
  center0.AddRelation("R");
  center0.AddRelation("R");
  center0.AddOverlap(0, 1).AddOverlap(0, 2);
  const Query path0 = center0.Build().value();
  ASSERT_EQ(path1.CanonicalKey(), path0.CanonicalKey());

  WorldConfig config;
  config.seed = SeedBase() + 29;
  config.max_dim = 12.0;
  config.max_rects_per_relation = 80;
  const auto one = MakeWorldData(config, 1);
  const std::vector<std::vector<Rect>> data = {one[0], one[0], one[0]};

  RunnerOptions options;
  options.algorithm = Algorithm::kControlledReplicate;
  const StatusOr<JoinRunResult> serial1 = RunSpatialJoin(path1, data, options);
  const StatusOr<JoinRunResult> serial0 = RunSpatialJoin(path0, data, options);
  ASSERT_TRUE(serial1.ok());
  ASSERT_TRUE(serial0.ok());

  DatasetCatalog catalog;
  catalog.PutDataset("roads", one[0]);
  SchedulerOptions sched_options;
  sched_options.catalog = &catalog;
  JobScheduler scheduler(sched_options);

  auto submit = [&](const Query& query) {
    JobSpec spec;
    spec.query = query;
    spec.dataset_names = {"roads", "roads", "roads"};
    spec.options = options;
    StatusOr<JobHandle> handle = scheduler.Submit(std::move(spec));
    EXPECT_TRUE(handle.ok()) << handle.status().message();
    return handle.value().Take();
  };

  const StatusOr<JoinRunResult> first = submit(path1);
  const StatusOr<JoinRunResult> second = submit(path0);
  ASSERT_TRUE(first.ok()) << first.status().message();
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_EQ(first.value().tuples, serial1.value().tuples);
  EXPECT_EQ(second.value().tuples, serial0.value().tuples);
  // Only the bundle (keyed on data alone) is shared across the two role
  // bindings; the rank permutation separates every derived artifact.
  EXPECT_EQ(second.value().stats.catalog_hits, 1);
  EXPECT_EQ(second.value().stats.catalog_misses, 2);
}

TEST(SchedulerCatalogTest, InlineRelationsNeverTouchTheCatalog) {
  // Inline (non-catalog) inputs have no sound cache identity; a scheduler
  // with a catalog must not let such jobs read or pollute it.
  WorldConfig config;
  config.seed = SeedBase() + 5;
  const Query query = MakeWorldQuery(config);
  const auto data = MakeWorldData(config, query.num_relations());

  DatasetCatalog catalog;
  SchedulerOptions sched_options;
  sched_options.catalog = &catalog;
  JobScheduler scheduler(sched_options);

  for (int round = 0; round < 2; ++round) {
    JobSpec spec;
    spec.query = query;
    spec.borrowed_relations = &data;
    StatusOr<JobHandle> handle = scheduler.Submit(std::move(spec));
    ASSERT_TRUE(handle.ok());
    const StatusOr<JoinRunResult>& result = handle.value().Wait();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().stats.catalog_hits, 0);
    EXPECT_EQ(result.value().stats.catalog_misses, 0);
  }
  EXPECT_EQ(catalog.hits() + catalog.misses(), 0);
}

}  // namespace
}  // namespace mwsj
