#ifndef MWSJ_MAPREDUCE_FAULT_H_
#define MWSJ_MAPREDUCE_FAULT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>

#include "common/status.h"

namespace mwsj {

/// Fault injection and recovery model for the in-process map-reduce engine.
///
/// The paper's rounds run on Hadoop, whose defining runtime property is
/// that tasks fail and are transparently re-executed with exactly-once
/// output. This module models that axis deterministically: a FaultPlan
/// decides, as a pure function of (phase, task, attempt), whether an
/// attempt crashes, fails midway, or straggles; the engine retries with
/// bounded exponential backoff and discards everything a failed attempt
/// produced (emits, user counters, spill runs), so job output stays
/// byte-identical to a fault-free run while the wasted work is accounted
/// in JobStats.

/// Engine phase a fault is injected into. Map and reduce execute user
/// code; kSpill covers the spill-flush I/O a budgeted mapper chunk
/// performs when writing its sorted runs (task id = chunk index). The
/// reduce-side merge runs inside the reduce attempt and faults with it.
enum class FaultPhase {
  kMap = 0,
  kReduce = 1,
  kSpill = 2,
};
const char* FaultPhaseName(FaultPhase phase);

/// What happens to one task attempt.
enum class FaultKind {
  kNone = 0,
  /// The attempt dies at task start: no records processed, nothing emitted.
  kCrash,
  /// The attempt dies midway through its input (flaky I/O): roughly half
  /// the records are processed and their emits, counter increments, and
  /// spill runs must all be discarded — the canonical test that attempt
  /// scoping is airtight.
  kFlakyIo,
  /// The attempt completes correctly but is marked a straggler, so the
  /// engine launches a speculative duplicate attempt at once (no clock is
  /// consulted); the duplicate's identical output is discarded and charged
  /// as wasted work (Hadoop's speculative execution).
  kSlow,
};

/// A deterministic schedule of per-attempt faults keyed by
/// (phase, task_id, attempt).
///
/// Two layers compose:
///   * explicit injections (`Inject`) — exact faults for targeted tests;
///   * a seeded probabilistic layer (`Seeded`) — every key not explicitly
///     injected faults as a pure hash of (seed, phase, task, attempt), so
///     a plan is reproducible across runs, platforms, and thread counts.
///
/// Seeded plans are bounded by construction: attempts at or beyond
/// `max_faulted_attempts` never fault, guaranteeing every task succeeds
/// within `max_faulted_attempts + 1` attempts. Explicit injections are
/// not bounded — injecting faults on every attempt up to the retry
/// policy's max_attempts exhausts the task (tested via death tests).
class FaultPlan {
 public:
  /// An empty plan: every attempt is fault-free.
  FaultPlan() = default;

  /// A seeded probabilistic plan. Each probability is the chance that a
  /// given (phase, task, attempt) suffers the corresponding fault;
  /// `crash + flaky + slow` must be <= 1.
  static FaultPlan Seeded(uint64_t seed, double crash_prob, double flaky_prob,
                          double slow_prob);

  /// Parses a plan spec of the form
  /// `seed=42,crash=0.1,flaky=0.05,slow=0.02[,bound=3]` (any subset of
  /// keys; omitted probabilities default to 0, seed to 0, bound to 3).
  static StatusOr<FaultPlan> Parse(const std::string& spec);

  /// Forces `kind` onto one exact attempt, overriding the seeded layer.
  void Inject(FaultPhase phase, int64_t task, int attempt, FaultKind kind);

  /// Seeded faults never hit attempt indices >= n (default 3), bounding
  /// every seeded plan within a default retry budget of 4 attempts.
  void set_max_faulted_attempts(int n) { max_faulted_attempts_ = n; }

  /// The fault (if any) for one attempt. Pure and thread-safe: the engine
  /// calls this concurrently from pool workers.
  FaultKind At(FaultPhase phase, int64_t task, int attempt) const;

  /// True when no attempt can ever fault (no injections, zero
  /// probabilities) — the engine then skips all staging work.
  bool empty() const;

  uint64_t seed() const { return seed_; }

 private:
  using Key = std::tuple<int, int64_t, int>;  // (phase, task, attempt)
  std::map<Key, FaultKind> injected_;
  uint64_t seed_ = 0;
  double crash_prob_ = 0;
  double flaky_prob_ = 0;
  double slow_prob_ = 0;
  int max_faulted_attempts_ = 3;
};

/// Bounded-retry policy for faulted task attempts. The engine consults it
/// only when an attempt actually fails, so a fault-free run never sleeps.
struct RetryPolicy {
  /// A task failing this many attempts aborts the job (Hadoop's
  /// mapred.map.max.attempts, default 4).
  int max_attempts = 4;

  /// Backoff before retry `a` (0-based failed attempt index) is
  /// `backoff_initial_seconds * backoff_multiplier^a`.
  double backoff_initial_seconds = 0.0005;
  double backoff_multiplier = 2.0;

  /// Clock injection: when set, called with each computed backoff instead
  /// of sleeping — tests assert the exponential sequence without real
  /// sleeps. Null means a real std::this_thread sleep.
  std::function<void(double)> sleep;
};

/// Backoff duration before retrying after the `attempt`-th failure.
double BackoffSeconds(const RetryPolicy& policy, int attempt);

}  // namespace mwsj

#endif  // MWSJ_MAPREDUCE_FAULT_H_
