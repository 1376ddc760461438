#ifndef MWSJ_MAPREDUCE_COUNTERS_H_
#define MWSJ_MAPREDUCE_COUNTERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mwsj {

/// Fault-recovery accounting for one engine phase (map or reduce) of one
/// job. `tasks`/`attempts` are always tracked (attempts == tasks on a
/// clean run); every other field stays zero unless an attempt actually
/// faulted, and the whole block is omitted from stats_json when nothing
/// did. "Wasted" quantities are the work performed by attempts that were
/// later discarded — the retry-amplification cost the chaos suite and
/// BM_EngineFaultRecovery measure.
struct PhaseFaultStats {
  /// Tasks in the phase (chunks for map, reducers for reduce).
  int64_t tasks = 0;
  /// Attempts executed, including the first attempt of every task.
  int64_t attempts = 0;
  /// Attempts beyond the first caused by crash/flaky faults.
  int64_t retries = 0;
  /// Speculative duplicate attempts launched for straggling tasks.
  int64_t speculative = 0;
  /// Records emitted by discarded attempts.
  int64_t wasted_records = 0;
  /// Bytes emitted by discarded attempts.
  int64_t wasted_bytes = 0;
  /// CPU seconds spent inside discarded attempts.
  double wasted_seconds = 0;
  /// Total backoff delay charged before retries (virtual when the retry
  /// policy injects a clock).
  double backoff_seconds = 0;

  bool Any() const;
  void Add(const PhaseFaultStats& other);
};

/// Shuffle memory accounting for one job run
/// (ExecutionOptions::shuffle_memory_budget; DESIGN.md §2.13). Omitted
/// from stats_json when the job ran unbounded. An unbounded run spills
/// nothing, so its spill and flush fields stay zero; the peak and merge
/// fields describe every run.
struct SpillStats {
  /// The effective byte budget the run executed under; 0 = unlimited.
  int64_t budget_bytes = 0;
  /// Mapper chunks whose output exceeded budget/num_chunks and were
  /// flushed to sorted runs.
  int64_t spilled_chunks = 0;
  /// Sorted runs written (one per non-empty bucket of a spilled chunk).
  int64_t spilled_runs = 0;
  /// Intermediate bytes of the spilled buckets before encoding.
  int64_t spilled_raw_bytes = 0;
  /// Bytes the committed runs store in their map shards (columnar-compressed
  /// where the record type supports it, raw otherwise).
  int64_t spilled_stored_bytes = 0;
  /// Spill-flush attempts retried under fault injection.
  int64_t flush_retries = 0;
  /// Bytes of the runs that failed and speculative flush attempts built
  /// and dropped.
  int64_t wasted_flush_bytes = 0;
  /// Shuffle-state bytes resident at the map→reduce barrier: the
  /// in-memory buckets of unspilled chunks (spilled runs are counted by
  /// spilled_stored_bytes). Deterministic (computed from sizes, not
  /// sampled).
  int64_t peak_shuffle_bytes = 0;
  /// Largest single reducer inbox, in intermediate bytes — the reduce-side
  /// working set a concurrent-reducer bound multiplies.
  int64_t peak_inbox_bytes = 0;
  /// Widest k-way merge any reducer performed (number of sources).
  int64_t merge_runs_max = 0;

  bool active() const { return budget_bytes > 0; }
  /// spilled_raw_bytes / spilled_stored_bytes; 0 when nothing spilled.
  double CompressionRatio() const;
  void Add(const SpillStats& other);
};

/// Statistics of one executed map-reduce job. Every quantity the paper's
/// evaluation reports (intermediate key-value pairs = "rectangles after
/// replication", reducer load, read/write volume) is captured here; the
/// cost model converts them into modeled cluster time.
struct JobStats {
  std::string job_name;
  /// Scheduler-assigned id of the submission this job ran under
  /// (core/scheduler.h); -1 for standalone (non-scheduled) runs. Lets a
  /// stats document from a shared pool attribute each MR job to its
  /// submission even when job names repeat across submissions.
  int64_t job_id = -1;

  int64_t map_input_records = 0;
  int64_t map_input_bytes = 0;
  /// Intermediate key-value pairs produced by the map phase — the paper's
  /// primary communication-cost metric (§1).
  int64_t intermediate_records = 0;
  int64_t intermediate_bytes = 0;
  int64_t reduce_output_records = 0;
  int64_t reduce_output_bytes = 0;

  int num_reducers = 0;
  /// Records routed to each reducer; skew drives the modeled reduce time.
  std::vector<int64_t> per_reducer_records;
  /// Measured CPU seconds spent inside each reduce task.
  std::vector<double> per_reducer_seconds;
  /// Measured seconds spent inside each map task (one entry per input
  /// chunk); mapper skew is observable the same way reducer skew is.
  std::vector<double> per_chunk_map_seconds;

  /// Wall time of the three engine phases: map (chunked, parallel),
  /// shuffle (per-reducer bucket merge, parallel), reduce (parallel).
  /// Together they account for essentially all of wall_seconds.
  double map_seconds = 0;
  double shuffle_seconds = 0;
  double reduce_seconds = 0;

  /// End-to-end in-process wall time of the job.
  double wall_seconds = 0;

  /// User-defined counters (e.g. "rectangles_marked" in C-Rep round 1).
  /// Exactly-once under faults: failed attempts' increments are discarded.
  std::map<std::string, int64_t> user_counters;

  /// Fault-recovery accounting per phase; all-zero without a fault plan.
  PhaseFaultStats map_faults;
  PhaseFaultStats reduce_faults;

  /// Shuffle memory accounting; see SpillStats for what an unbudgeted run
  /// fills in.
  SpillStats spill;

  /// True when any attempt in the job faulted or was re-executed.
  bool AnyFaults() const;

  int64_t MaxReducerRecords() const;
  double MaxReducerSeconds() const;
  double SumReducerSeconds() const;
  double MaxMapChunkSeconds() const;
  double SumMapChunkSeconds() const;
  /// map + shuffle + reduce — the accounted-for portion of wall_seconds.
  double PhaseSeconds() const;
};

/// Aggregated statistics of a whole algorithm run (one or more MR jobs).
struct RunStats {
  std::vector<JobStats> jobs;

  /// Measured in-process wall time across all jobs.
  double total_wall_seconds = 0;

  /// Wall time the caller waits after the last job: assembling and
  /// sorting the output tuples (the join round's `sort_tuples`, Cascade's
  /// `cascade_finalize`, knn-MR's row assembly) and the runner's
  /// distinct-ids filter. Zero for count-only runs, which have no tuples.
  /// Not part of total_wall_seconds, which stays the sum of job walls.
  double post_join_seconds = 0;

  /// DatasetCatalog reuse accounting for this run: how many cached
  /// artifacts (grid partitioning, C-Rep round-1 marking, knn-mr round-1
  /// cell bounds, relation bundles) were found resident vs. built from
  /// scratch. Both zero when the run had no catalog attached.
  int64_t catalog_hits = 0;
  int64_t catalog_misses = 0;

  /// Counts one catalog lookup: a hit when its value was `cached`.
  void CountCatalogLookup(bool cached) {
    ++(cached ? catalog_hits : catalog_misses);
  }

  /// Sum of user counter `name` across jobs.
  int64_t UserCounter(const std::string& name) const;
  int64_t TotalIntermediateRecords() const;
  int64_t TotalIntermediateBytes() const;

  void Add(JobStats stats);
};

}  // namespace mwsj

#endif  // MWSJ_MAPREDUCE_COUNTERS_H_
