#include "core/scheduler.h"

#include <algorithm>
#include <utility>

#include "common/str_format.h"

namespace mwsj {

const char* JobStateName(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kSucceeded:
      return "succeeded";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

namespace {

bool IsTerminal(JobState s) {
  return s == JobState::kSucceeded || s == JobState::kFailed ||
         s == JobState::kCancelled;
}

}  // namespace

JobState JobHandle::status() const {
  MutexLock lock(&job_->mu);
  return job_->state;
}

const StatusOr<JoinRunResult>& JobHandle::Wait() const {
  MutexLock lock(&job_->mu);
  while (!IsTerminal(job_->state)) job_->done.Wait(job_->mu);
  // Terminal results are never written again, so handing out a reference
  // after unlocking is safe.
  return job_->result;
}

StatusOr<JoinRunResult> JobHandle::Take() {
  MutexLock lock(&job_->mu);
  while (!IsTerminal(job_->state)) job_->done.Wait(job_->mu);
  StatusOr<JoinRunResult> out = std::move(job_->result);
  job_->result = Status::FailedPrecondition("job result was already taken");
  return out;
}

bool JobHandle::Cancel() {
  MutexLock lock(&job_->mu);
  if (job_->state != JobState::kQueued) return false;
  // The job stays in the scheduler's queue; the driver that eventually
  // pops it sees the terminal state and skips execution.
  job_->state = JobState::kCancelled;
  job_->result = Status::FailedPrecondition("job was cancelled while queued");
  job_->done.NotifyAll();
  return true;
}

JobScheduler::JobScheduler(const SchedulerOptions& options)
    : options_(options) {
  options_.max_in_flight = std::max(1, options_.max_in_flight);
  options_.max_queued = std::max(1, options_.max_queued);
  if (options_.inline_execution) return;  // Jobs run on Submit's thread.
  drivers_.reserve(static_cast<size_t>(options_.max_in_flight));
  for (int i = 0; i < options_.max_in_flight; ++i) {
    drivers_.emplace_back([this] { DriverLoop(); });
  }
}

JobScheduler::~JobScheduler() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  work_available_.NotifyAll();
  // Drivers drain the queue before exiting, so every accepted job reaches
  // a terminal state and every handle's Wait() returns.
  for (auto& d : drivers_) d.join();
}

StatusOr<JobHandle> JobScheduler::Submit(JobSpec spec) {
  if (!spec.query.has_value()) {
    return Status::InvalidArgument("JobSpec has no query");
  }
  const bool has_names = !spec.dataset_names.empty();
  const bool has_inline = !spec.relations.empty();
  const bool has_borrowed = spec.borrowed_relations != nullptr;
  if ((has_names && (has_inline || has_borrowed)) ||
      (has_inline && has_borrowed)) {
    return Status::InvalidArgument(
        "JobSpec must use exactly one input source (dataset_names, "
        "relations, or borrowed_relations)");
  }
  if (has_names) {
    DatasetCatalog* catalog = spec.options.catalog != nullptr
                                  ? spec.options.catalog
                                  : options_.catalog;
    if (catalog == nullptr) {
      return Status::FailedPrecondition(
          "JobSpec names catalog datasets but no DatasetCatalog is "
          "configured");
    }
    if (static_cast<int>(spec.dataset_names.size()) !=
        spec.query->num_relations()) {
      return Status::InvalidArgument(StrFormat(
          "query has %d relations but %zu dataset names were supplied",
          spec.query->num_relations(), spec.dataset_names.size()));
    }
  }

  auto job = std::make_shared<scheduler_internal::Job>();
  job->spec = std::move(spec);
  {
    MutexLock lock(&mu_);
    if (shutdown_) {
      return Status::FailedPrecondition(
          "the scheduler is shutting down and admits no new jobs");
    }
    if (!options_.inline_execution &&
        static_cast<int>(queue_.size()) >= options_.max_queued) {
      ++counters_.rejected;
      return Status::FailedPrecondition(
          StrFormat("admission queue is full (%d jobs queued); retry after "
                    "in-flight jobs finish",
                    options_.max_queued));
    }
    job->id = next_id_++;
    if (!options_.inline_execution) queue_.push_back(job);
    ++counters_.submitted;
  }
  if (options_.inline_execution) {
    // Run to a terminal state on this thread; the handle returned is
    // already resolved, so Wait()/Take() never block.
    RunJob(job.get());
    return JobHandle(std::move(job));
  }
  work_available_.NotifyOne();
  return JobHandle(std::move(job));
}

void JobScheduler::Drain() {
  MutexLock lock(&mu_);
  while (!queue_.empty() || running_ != 0) idle_.Wait(mu_);
}

JobScheduler::Counters JobScheduler::counters() const {
  MutexLock lock(&mu_);
  return counters_;
}

void JobScheduler::DriverLoop() {
  for (;;) {
    std::shared_ptr<scheduler_internal::Job> job;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && queue_.empty()) work_available_.Wait(mu_);
      if (queue_.empty()) return;  // Shutdown with a drained queue.
      job = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    RunJob(job.get());
    {
      MutexLock lock(&mu_);
      --running_;
      if (queue_.empty() && running_ == 0) idle_.NotifyAll();
    }
  }
}

void JobScheduler::RunJob(scheduler_internal::Job* job) {
  {
    MutexLock lock(&job->mu);
    if (job->state == JobState::kCancelled) {
      MutexLock sched_lock(&mu_);
      ++counters_.cancelled;
      return;
    }
    job->state = JobState::kRunning;
  }

  // The per-job options inherit the scheduler's shared wiring; the spec's
  // own label/faults/retry stay job-scoped.
  RunnerOptions options = job->spec.options;
  options.context.pool = options_.pool;
  options.context.tracer = options_.tracer;
  options.context.job_id = job->id;
  if (options.catalog == nullptr) options.catalog = options_.catalog;
  if (options_.shuffle_memory_budget > 0) {
    // Concurrent jobs share the process budget: each in-flight slot gets
    // an equal slice, and a job keeps its own budget only when stricter.
    const int slots =
        options_.inline_execution ? 1 : std::max(1, options_.max_in_flight);
    const int64_t share = std::max<int64_t>(
        int64_t{1}, options_.shuffle_memory_budget / slots);
    int64_t& job_budget = options.context.options.shuffle_memory_budget;
    if (job_budget <= 0 || job_budget > share) job_budget = share;
  }

  StatusOr<JoinRunResult> result = Status::Internal("job produced no result");
  const std::vector<std::vector<Rect>>* relations = nullptr;
  // Keeps a catalog bundle alive across the run.
  std::shared_ptr<const std::vector<std::vector<Rect>>> bundle_data;
  bool bundle_cached = false;
  if (!job->spec.dataset_names.empty()) {
    StatusOr<DatasetCatalog::RelationBundle> bundle =
        options.catalog->GetRelationBundle(job->spec.dataset_names);
    if (!bundle.ok()) {
      result = bundle.status();
    } else {
      bundle_data = bundle.value().relations;
      relations = bundle_data.get();
      bundle_cached = bundle.value().cached;
      // Base artifact key: canonical query form + epoch-qualified inputs
      // + the canonical-rank-to-position permutation. The canonical form
      // relabels relations and forgets which position each rank came
      // from, while the data list is positional — without the permutation
      // two structurally different submissions (or two self-join
      // spellings over one dataset) could render the same form and data
      // list yet bind the datasets to different join roles, serving one
      // job's grid / C-Rep round-1 marking to the other. Equal keys imply
      // positionally identical (query, data): never a false hit.
      std::string perm = "perm[";
      const std::vector<int> ranks = job->spec.query->CanonicalRanks();
      for (size_t i = 0; i < ranks.size(); ++i) {
        if (i > 0) perm += ',';
        perm += StrFormat("%d", ranks[i]);
      }
      perm += ']';
      options.artifact_key = job->spec.query->CanonicalKey() + "|" +
                             bundle.value().data_key + "|" + perm;
    }
  } else {
    relations = job->spec.borrowed_relations != nullptr
                    ? job->spec.borrowed_relations
                    : &job->spec.relations;
  }
  if (relations != nullptr) {
    result = job->spec.execute != nullptr
                 ? job->spec.execute(*job->spec.query, *relations, options)
                 : RunSpatialJoin(*job->spec.query, *relations, options);
    if (result.ok() && bundle_data != nullptr) {
      result.value().stats.CountCatalogLookup(bundle_cached);
    }
  }

  const bool ok = result.ok();
  // Tally before resolving: Wait() returns the instant `done` fires, and a
  // caller reading counters() right after must already see this job.
  {
    MutexLock lock(&mu_);
    if (ok) {
      ++counters_.succeeded;
    } else {
      ++counters_.failed;
    }
  }
  {
    MutexLock lock(&job->mu);
    job->result = std::move(result);
    job->state = ok ? JobState::kSucceeded : JobState::kFailed;
    job->done.NotifyAll();
  }
}

}  // namespace mwsj
