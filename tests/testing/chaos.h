#ifndef MWSJ_TESTS_TESTING_CHAOS_H_
#define MWSJ_TESTS_TESTING_CHAOS_H_

#include <cstdint>
#include <string>

#include "common/thread_pool.h"
#include "core/runner.h"
#include "mapreduce/fault.h"
#include "testing/differential.h"
#include "testing/world.h"

namespace mwsj::testing {

/// Chaos-test harness for the engine's exactly-once fault recovery.
///
/// One chaos world runs a randomized join three ways — a brute-force
/// oracle, a fault-free baseline, and under a seeded deterministic
/// FaultPlan — and cross-checks that fault injection is invisible in
/// everything except the fault accounting itself: byte-identical tuples,
/// user counters, shuffle statistics, and reduce output accounting.
///
/// Since the differential-harness factoring this is a thin adapter: it
/// assembles the multiway-join DifferentialWorkload (brute-force oracle +
/// RunSpatialJoin over the world's seeded grid geometry) and delegates to
/// RunDifferentialWorld (testing/differential.h), which owns the
/// oracle/baseline/faulted execution and every cross-check.

struct ChaosOptions {
  /// Seed of the FaultPlan::Seeded plan applied to the faulted run.
  uint64_t fault_seed = 1;
  /// Per-attempt fault probabilities. The defaults are brutal compared to
  /// any real cluster (~20% of attempts fault) so even a 9-task job
  /// usually retries something.
  double crash_prob = 0.08;
  double flaky_prob = 0.08;
  double slow_prob = 0.04;
  /// Worker pool for all three runs; null = unthreaded. Fault plans are
  /// keyed by (phase, task, attempt), so the outcome must not depend on
  /// this.
  ThreadPool* pool = nullptr;
  /// Shuffle memory budget of the faulted run. The fault-free baseline is
  /// always pinned to the in-memory shuffle, so any positive value here
  /// asserts the out-of-core path (sorted spill runs + k-way merge,
  /// DESIGN.md §2.13) is byte-identical to the in-memory one — on top of
  /// the fault axis. Tiny values (a few bytes) force every mapper chunk to
  /// flush. 0 inherits MWSJ_SHUFFLE_BUDGET like any run.
  int64_t shuffle_memory_budget = 0;
  /// When set, replaces the Seeded(fault_seed, ...) plan on the faulted
  /// run — for targeted injections such as a crash mid-spill-flush
  /// (FaultPlan::Inject(FaultPhase::kSpill, chunk, attempt, kind)).
  const FaultPlan* fault_plan = nullptr;
};

/// What one chaos world observed — exactly the differential harness's
/// outcome (the adapter adds no fields of its own).
using ChaosOutcome = DifferentialOutcome;

/// Runs one chaos world for `algorithm`. Deterministic: the same
/// (config, algorithm, options) triple always yields the same outcome,
/// threaded or not. No real sleeps — the faulted run's retry policy
/// injects a virtual backoff clock.
ChaosOutcome RunChaosWorld(const WorldConfig& config, Algorithm algorithm,
                           const ChaosOptions& options);

/// Chaos configuration for the scheduler core: a fleet of concurrent
/// mixed-algorithm jobs on one JobScheduler, each under its own seeded
/// fault plan (in-flight task attempts are killed and re-executed), with
/// a deterministic subset of submissions cancelled from the queue.
struct SchedulerChaosOptions {
  /// Derives every world seed and per-job fault seed.
  uint64_t base_seed = 0;
  /// Concurrent submissions per world (mixed algorithms, rotating).
  int num_jobs = 8;
  /// Shared worker pool for all jobs' engine tasks; null = inline.
  ThreadPool* pool = nullptr;
  /// Concurrent driver slots of the scheduler under test.
  int max_in_flight = 3;
  /// Per-attempt fault probabilities of each job's seeded plan.
  double crash_prob = 0.08;
  double flaky_prob = 0.08;
  double slow_prob = 0.04;
  /// Every n-th submission gets a Cancel() attempt right after the batch
  /// is submitted. Cancellation races admission by design: a job that
  /// already started must run to its exact result; only still-queued jobs
  /// die. 0 disables cancellation.
  int cancel_every = 3;
};

/// What one scheduler chaos world observed across its job fleet.
struct SchedulerChaosOutcome {
  /// Fault-recovery tallies summed over every surviving job.
  int64_t attempts = 0;
  int64_t retries = 0;
  int64_t speculative = 0;
  int64_t wasted_records = 0;

  /// Submissions whose Cancel() landed while queued (they must fail with
  /// FailedPrecondition) vs. jobs that ran to completion.
  int64_t cancelled = 0;
  int64_t survived = 0;

  /// Empty when every surviving job was byte-identical to its own serial
  /// fault-free baseline (tuples, statistics, counters) with correct
  /// per-job attribution; else describes the first divergence.
  std::string mismatch;
  bool ok() const { return mismatch.empty(); }
};

/// Runs one scheduler chaos world: `num_jobs` randomized worlds submitted
/// concurrently to a single JobScheduler, fault plans killing in-flight
/// task attempts, cancellations racing the queue. Every job that is not
/// cancelled must produce exactly the tuples and statistics of its serial,
/// fault-free, unscheduled baseline. No real sleeps.
SchedulerChaosOutcome RunSchedulerChaosWorld(
    const SchedulerChaosOptions& options);

}  // namespace mwsj::testing

#endif  // MWSJ_TESTS_TESTING_CHAOS_H_
