#ifndef MWSJ_TESTS_TESTING_DIFFERENTIAL_H_
#define MWSJ_TESTS_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/execution_context.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/records.h"
#include "localjoin/brute_force.h"
#include "mapreduce/fault.h"

namespace mwsj::testing {

/// Generic differential harness: runs *any* workload three ways — a
/// brute-force oracle, a fault-free in-memory baseline, and a variant
/// under a seeded FaultPlan / shuffle budget / pinned SIMD ISA — and
/// cross-checks that the perturbation axes are invisible in everything
/// except their own accounting: byte-identical tuples, user counters,
/// shuffle statistics, and reduce output records and bytes. The chaos layer
/// (testing/chaos.h) is a multiway-join adapter over this harness; the
/// knn-mr differential suite drives it directly.

/// A workload under differential test. The harness owns the perturbation
/// axes and hands the workload a fully assembled ExecutionContext (pool,
/// faults, retry policy, shuffle budget); the workload folds it into
/// its own options verbatim and runs the real pipeline.
struct DifferentialWorkload {
  /// Label used in mismatch messages.
  std::string name;

  /// Scalar brute-force oracle — the expected tuple block, computed once
  /// outside the engine.
  std::function<TupleBlock()> oracle;

  /// One engine run under the given context. Invoked twice per world:
  /// for the fault-free in-memory baseline and for the perturbed variant.
  /// Must be deterministic given the context (no shared mutable state
  /// across invocations — e.g. construct catalogs inside, or none).
  std::function<StatusOr<JoinRunResult>(const ExecutionContext& ctx)> run;
};

/// Perturbation axes of one differential world (a superset of the chaos
/// layer's ChaosOptions).
struct DifferentialOptions {
  /// Seed of the FaultPlan::Seeded plan applied to the variant run.
  uint64_t fault_seed = 1;
  /// Per-attempt fault probabilities — brutal by design (~20% of attempts
  /// fault) so even small jobs usually retry something.
  double crash_prob = 0.08;
  double flaky_prob = 0.08;
  double slow_prob = 0.04;
  /// Worker pool for baseline and variant; null = unthreaded. Fault plans
  /// key on (phase, task, attempt), so outcomes must not depend on this.
  ThreadPool* pool = nullptr;
  /// Shuffle memory budget of the variant run. The baseline is always
  /// pinned to the in-memory shuffle, so any positive value asserts the
  /// out-of-core path is byte-identical on top of the fault axis. 0
  /// inherits MWSJ_SHUFFLE_BUDGET like any run.
  int64_t shuffle_memory_budget = 0;
  /// When set, replaces the Seeded(fault_seed, ...) plan on the variant —
  /// for targeted injections such as a crash mid-spill-flush
  /// (FaultPlan::Inject(FaultPhase::kSpill, chunk, attempt, kind)).
  const FaultPlan* fault_plan = nullptr;
};

/// What one differential world observed. The fault tallies aggregate the
/// variant run's JobStats across jobs; callers typically sum them over
/// many worlds and assert the plans actually fired (retries > 0).
struct DifferentialOutcome {
  int64_t attempts = 0;
  int64_t retries = 0;
  int64_t speculative = 0;
  int64_t wasted_records = 0;
  double wasted_seconds = 0;
  double backoff_seconds = 0;
  int64_t num_tuples = 0;

  /// Out-of-core tallies of the variant run (JobStats::spill summed over
  /// jobs); zero unless a shuffle budget made chunks flush sorted runs.
  int64_t spilled_runs = 0;
  int64_t spill_flush_retries = 0;
  int64_t spill_wasted_flush_bytes = 0;
  /// User counters of the variant run, summed over its jobs. Already
  /// checked equal to the baseline's per job; exposed so a test can also
  /// pin that a counter it relies on is present at all.
  std::map<std::string, int64_t> user_counters;

  /// Empty when the variant run matched the brute-force oracle and the
  /// fault-free baseline everywhere; else describes the first divergence.
  std::string mismatch;
  bool ok() const { return mismatch.empty(); }
};

/// Runs one differential world. Deterministic: the same (workload,
/// options) pair always yields the same outcome, threaded or not. No real
/// sleeps — the variant's retry policy injects a virtual backoff clock.
DifferentialOutcome RunDifferentialWorld(const DifferentialWorkload& workload,
                                         const DifferentialOptions& options);

/// First divergence between two runs' job statistics, or "" when they are
/// byte-identical in every exactly-once quantity (fault accounting is
/// deliberately excluded — it is *supposed* to differ). Shared by this
/// harness and the scheduler chaos layer.
std::string CompareJobStats(const RunStats& baseline, const RunStats& faulted);

}  // namespace mwsj::testing

#endif  // MWSJ_TESTS_TESTING_DIFFERENTIAL_H_
