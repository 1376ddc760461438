#ifndef MWSJ_COMMON_EXECUTION_CONTEXT_H_
#define MWSJ_COMMON_EXECUTION_CONTEXT_H_

#include <cstdint>
#include <string>

namespace mwsj {

class FaultPlan;
struct RetryPolicy;
class ThreadPool;
class Tracer;

/// Per-run execution knobs consulted by the map-reduce engine. Kept apart
/// from the pointer bundle below so a scheduler can clamp them per job
/// without touching the environment wiring.
struct ExecutionOptions {
  /// Byte budget for the engine's in-memory shuffle state (the per-chunk ×
  /// per-reducer bucket matrix). 0 means "inherit the MWSJ_SHUFFLE_BUDGET
  /// environment override, else unlimited"; -1 means explicitly unlimited
  /// (ignore the environment). Mapper chunks whose output exceeds
  /// budget/num_chunks flush their key-sorted buckets as
  /// columnar-compressed sorted runs, which reducers k-way merge like the
  /// resident buckets; an unlimited budget never spills. Output is
  /// byte-identical under every budget (mapreduce/spill.h, DESIGN.md
  /// §2.13).
  int64_t shuffle_memory_budget = 0;
};

/// Everything an algorithm needs from its execution environment, bundled
/// so a run threads one value through engine, algorithms, and tools
/// instead of loose `ThreadPool*` parameters:
///
///   * `pool`   — optional worker pool shared across all phases of a run;
///                null means synchronous single-threaded execution;
///   * `tracer` — optional span tracer (common/trace.h); null disables
///                instrumentation at a single pointer test per span;
///   * `label`  — run-scoped metadata attached to top-level trace spans
///                (e.g. the algorithm name or a tool-run identifier);
///   * `faults` — optional fault-injection plan (mapreduce/fault.h); null
///                (or an empty plan) runs every task attempt fault-free;
///   * `retry`  — retry/backoff/straggler policy consulted only when an
///                attempt faults; null uses the engine's built-in default;
///   * `job_id` — scheduler-assigned id when several jobs share one pool
///                (core/scheduler.h); -1 means a standalone run. When set,
///                trace spans, JobStats and engine error messages carry
///                the id so concurrent jobs stay attributable;
///   * `options` — value knobs (shuffle memory budget) the engine reads
///                per run; see ExecutionOptions.
///
/// The context is a cheap value type holding non-owning pointers; the
/// caller keeps pool and tracer alive for the duration of the run.
struct ExecutionContext {
  ThreadPool* pool = nullptr;
  Tracer* tracer = nullptr;
  std::string label;
  const FaultPlan* faults = nullptr;
  const RetryPolicy* retry = nullptr;
  int64_t job_id = -1;
  ExecutionOptions options;

  ExecutionContext() = default;
  /// Explicit so a raw `ThreadPool*` (or nullptr) passed to a function
  /// overloaded on ThreadPool*/ExecutionContext stays unambiguous.
  explicit ExecutionContext(ThreadPool* pool, Tracer* tracer = nullptr)
      : pool(pool), tracer(tracer) {}
};

}  // namespace mwsj

#endif  // MWSJ_COMMON_EXECUTION_CONTEXT_H_
