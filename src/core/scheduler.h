#ifndef MWSJ_CORE_SCHEDULER_H_
#define MWSJ_CORE_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/execution_context.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/dataset_catalog.h"
#include "core/records.h"
#include "core/runner.h"
#include "query/query.h"

namespace mwsj {

class JobScheduler;

/// Configuration of a JobScheduler.
struct SchedulerOptions {
  /// Worker pool shared by every admitted job's map/shuffle/reduce tasks;
  /// null runs each job's tasks inline on its driver thread (jobs still
  /// execute concurrently, their engine phases just don't fan out).
  ThreadPool* pool = nullptr;

  /// Optional tracer shared by all jobs; every span a scheduled job
  /// records carries a "job" arg with the submission id.
  Tracer* tracer = nullptr;

  /// Optional resident catalog. Jobs naming catalog datasets resolve
  /// their inputs here, and repeat queries reuse grid / round-1 artifacts.
  DatasetCatalog* catalog = nullptr;

  /// Jobs executing concurrently (= driver threads). Admission control:
  /// job m+1 waits queued until a driver frees up.
  int max_in_flight = 2;

  /// Bound of the admission queue (jobs accepted but not yet running).
  /// Submit rejects with FailedPrecondition beyond this — backpressure
  /// instead of unbounded memory growth.
  int max_queued = 64;

  /// Process-wide shuffle memory budget in bytes, shared by concurrent
  /// jobs (0 = none). Each job the scheduler runs gets its budget clamped
  /// to budget / max_in_flight (the whole budget under inline_execution),
  /// so jobs in flight together cannot jointly exceed the process budget;
  /// a job's own smaller explicit budget is kept. See
  /// ExecutionOptions::shuffle_memory_budget for per-job semantics.
  int64_t shuffle_memory_budget = 0;

  /// Run each submission to a terminal state on the Submit caller's
  /// thread instead of on driver threads. No threads are spawned and the
  /// admission queue is never used (at most one job exists at a time, so
  /// max_in_flight/max_queued are moot). For callers that want scheduler
  /// features (job ids, process budget, dataset names) in a tight loop
  /// without a thread create/join per job; execution is otherwise
  /// identical. A caller needing none of them calls RunSpatialJoin.
  bool inline_execution = false;
};

/// One join-job submission. Exactly one input source must be set:
///
///   * `dataset_names` — one catalog dataset per query relation, resolved
///     against the scheduler's DatasetCatalog at execution time (the
///     service path: inputs stay resident, repeat queries skip ingest);
///   * `borrowed_relations` — non-owning view; the caller must keep the
///     data alive until the job reaches a terminal state (submitting
///     without copying).
struct JobSpec {
  /// The query to run. (Optional only because Query is builder-created
  /// and has no default constructor; Submit rejects an empty spec.)
  std::optional<Query> query;

  std::vector<std::string> dataset_names;
  const std::vector<std::vector<Rect>>* borrowed_relations = nullptr;

  /// Algorithm, grid, and per-job execution knobs. `options.context.pool`,
  /// `.tracer`, and `.job_id` are overwritten by the scheduler (the pool
  /// and tracer are scheduler-owned); `.label`, `.faults` and `.retry`
  /// are honored per job, so fault plans stay job-scoped.
  RunnerOptions options;

  /// Workload override: when set, the driver invokes this instead of
  /// RunSpatialJoin, with the same resolved inputs and fully composed
  /// options (scheduler-owned pool/tracer/job_id, clamped shuffle budget,
  /// catalog artifact_key for dataset-name submissions). This is how
  /// workloads outside the Algorithm enum — e.g. the distributed kNN join
  /// in queries/knn_mr.h, which the core library cannot name without
  /// inverting the queries→core dependency — flow through Submit and
  /// still inherit admission control, tracing, and artifact reuse.
  /// `query` is still required (it carries the relation count and the
  /// canonical artifact key); `options.algorithm` is ignored.
  std::function<StatusOr<JoinRunResult>(
      const Query& query, const std::vector<std::vector<Rect>>& relations,
      const RunnerOptions& options)>
      execute;
};

/// Lifecycle of a submission. Queued and Running are transient;
/// Succeeded/Failed/Cancelled are terminal.
enum class JobState {
  kQueued,     // accepted, waiting for a driver slot (FIFO)
  kRunning,    // executing on a driver
  kSucceeded,  // terminal; result() holds the JoinRunResult
  kFailed,     // terminal; result() holds the error status
  kCancelled,  // terminal; cancelled before a driver picked it up
};

namespace scheduler_internal {

/// Shared record of one submission; the scheduler's queue and every
/// JobHandle copy point at the same Job, so handles stay valid after the
/// scheduler drains (or is destroyed).
struct Job {
  int64_t id = 0;
  JobSpec spec;

  Mutex mu;
  CondVar done;
  JobState state GUARDED_BY(mu) = JobState::kQueued;
  StatusOr<JoinRunResult> result GUARDED_BY(mu) =
      Status::Internal("job has not finished");
};

}  // namespace scheduler_internal

/// Caller's view of one submission. Cheap to copy (shared state);
/// thread-safe.
class JobHandle {
 public:
  int64_t id() const { return job_->id; }

  /// Current lifecycle state.
  JobState status() const;

  /// Blocks until the job is terminal, then returns its result: the
  /// JoinRunResult on success, the failure status otherwise (a cancelled
  /// job fails with FailedPrecondition). The reference stays valid for
  /// the life of the handle — terminal results are immutable — unless
  /// Take() is called.
  const StatusOr<JoinRunResult>& Wait() const;

  /// Like Wait(), but moves the result out (valid once), so a caller
  /// keeps the tuple set without copying it.
  StatusOr<JoinRunResult> Take();

  /// Cancels the job iff it is still queued. Returns true when this call
  /// cancelled it; false when it already started running or is terminal
  /// (a running job is never interrupted — its output would otherwise not
  /// be byte-identical to a serial run).
  bool Cancel();

 private:
  friend class JobScheduler;
  explicit JobHandle(std::shared_ptr<scheduler_internal::Job> job)
      : job_(std::move(job)) {}

  std::shared_ptr<scheduler_internal::Job> job_;
};

/// The scheduler core: owns the shared pool/tracer/catalog wiring and a
/// fixed set of driver threads, admits jobs FIFO into a bounded queue, and
/// runs up to `max_in_flight` of them concurrently — their engine tasks
/// interleaved on the one shared ThreadPool (ParallelFor tracks per-call
/// completion, so concurrent jobs never wait on each other's tasks).
/// With `inline_execution` there are no drivers at all: Submit runs the
/// job on the calling thread and returns a terminal handle.
///
/// Each job executes exactly the blocking pipeline (RunSpatialJoin),
/// so per-job output is byte-identical to a serial run, fault semantics
/// stay exactly-once, and the zero-fault fast path is untouched; isolation
/// across jobs comes from per-job ids in spans and stats, not from
/// changed execution.
///
/// Destruction drains: every accepted job still runs to a terminal state
/// before the destructor returns (cancel first for a fast exit).
class JobScheduler {
 public:
  explicit JobScheduler(const SchedulerOptions& options);
  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;
  ~JobScheduler();

  /// Admits a job. Returns InvalidArgument for a malformed spec (no
  /// query, no input source or several, dataset-name count mismatch),
  /// FailedPrecondition when the admission queue is full or the
  /// spec names datasets but no catalog is configured. Job ids are
  /// assigned in admission order starting at 1.
  StatusOr<JobHandle> Submit(JobSpec spec) EXCLUDES(mu_);

  /// Blocks until every admitted job is terminal.
  void Drain() EXCLUDES(mu_);

  /// Lifetime totals, for tests and service dashboards.
  struct Counters {
    int64_t submitted = 0;  // accepted by Submit
    int64_t rejected = 0;   // refused by admission control
    int64_t succeeded = 0;
    int64_t failed = 0;
    int64_t cancelled = 0;
  };
  Counters counters() const EXCLUDES(mu_);

  const SchedulerOptions& options() const { return options_; }

 private:
  void DriverLoop() EXCLUDES(mu_);
  void RunJob(scheduler_internal::Job* job);

  SchedulerOptions options_;
  mutable Mutex mu_;
  CondVar work_available_;
  CondVar idle_;
  std::deque<std::shared_ptr<scheduler_internal::Job>> queue_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  int64_t next_id_ GUARDED_BY(mu_) = 1;
  int running_ GUARDED_BY(mu_) = 0;
  Counters counters_ GUARDED_BY(mu_);
  std::vector<std::thread> drivers_;  // Written only in the constructor.
};

}  // namespace mwsj

#endif  // MWSJ_CORE_SCHEDULER_H_
