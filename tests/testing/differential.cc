#include "testing/differential.h"

#include <cstddef>
#include <utility>

#include "common/str_format.h"
#include "mapreduce/dfs.h"

namespace mwsj::testing {

std::string CompareJobStats(const RunStats& baseline, const RunStats& faulted) {
  if (baseline.jobs.size() != faulted.jobs.size()) {
    return StrFormat("job count %zu vs %zu", baseline.jobs.size(),
                     faulted.jobs.size());
  }
  for (size_t j = 0; j < baseline.jobs.size(); ++j) {
    const JobStats& b = baseline.jobs[j];
    const JobStats& f = faulted.jobs[j];
    if (b.job_name != f.job_name) {
      return StrFormat("job %zu name '%s' vs '%s'", j, b.job_name.c_str(),
                       f.job_name.c_str());
    }
    auto diff = [&](const char* what, int64_t bv, int64_t fv) {
      return StrFormat("job '%s' %s %lld vs %lld under faults",
                       b.job_name.c_str(), what, static_cast<long long>(bv),
                       static_cast<long long>(fv));
    };
    if (b.map_input_records != f.map_input_records) {
      return diff("map_input_records", b.map_input_records,
                  f.map_input_records);
    }
    if (b.intermediate_records != f.intermediate_records) {
      return diff("intermediate_records", b.intermediate_records,
                  f.intermediate_records);
    }
    if (b.intermediate_bytes != f.intermediate_bytes) {
      return diff("intermediate_bytes", b.intermediate_bytes,
                  f.intermediate_bytes);
    }
    if (b.reduce_output_records != f.reduce_output_records) {
      return diff("reduce_output_records", b.reduce_output_records,
                  f.reduce_output_records);
    }
    if (b.reduce_output_bytes != f.reduce_output_bytes) {
      return diff("reduce_output_bytes", b.reduce_output_bytes,
                  f.reduce_output_bytes);
    }
    if (b.per_reducer_records != f.per_reducer_records) {
      return StrFormat("job '%s' per-reducer records diverged under faults",
                       b.job_name.c_str());
    }
    if (b.user_counters != f.user_counters) {
      for (const auto& [name, value] : b.user_counters) {
        const auto it = f.user_counters.find(name);
        if (it == f.user_counters.end()) {
          return StrFormat("job '%s' counter '%s' missing under faults",
                           b.job_name.c_str(), name.c_str());
        }
        if (it->second != value) {
          return diff(name.c_str(), value, it->second);
        }
      }
      return StrFormat("job '%s' has extra counters under faults",
                       b.job_name.c_str());
    }
  }
  return "";
}

namespace {

// Restores the ambient dispatch table even on early return.
class IsaPin {
 public:
  explicit IsaPin(const std::optional<simd::Isa>& isa)
      : original_(simd::ActiveIsa()) {
    if (isa.has_value()) simd::SetIsaForTesting(*isa);
  }
  ~IsaPin() { simd::SetIsaForTesting(original_); }
  IsaPin(const IsaPin&) = delete;
  IsaPin& operator=(const IsaPin&) = delete;

 private:
  simd::Isa original_;
};

}  // namespace

DifferentialOutcome RunDifferentialWorld(const DifferentialWorkload& workload,
                                         const DifferentialOptions& options) {
  DifferentialOutcome outcome;
  const TupleBlock expected = workload.oracle();

  // The baseline is the in-memory, fault-free, ambient-ISA ground truth:
  // whatever the variant's perturbations, its output must match this.
  Dfs baseline_dfs;
  ExecutionContext baseline_ctx;
  baseline_ctx.pool = options.pool;
  baseline_ctx.dfs = &baseline_dfs;
  baseline_ctx.options.shuffle_memory_budget = -1;
  const StatusOr<JoinRunResult> baseline = workload.run(baseline_ctx);
  if (!baseline.ok()) {
    outcome.mismatch = StrFormat("%s: baseline run failed: %s",
                                 workload.name.c_str(),
                                 baseline.status().ToString().c_str());
    return outcome;
  }

  const FaultPlan plan = FaultPlan::Seeded(
      options.fault_seed, options.crash_prob, options.flaky_prob,
      options.slow_prob);
  RetryPolicy retry;
  retry.sleep = [](double) {};  // Virtual clock: differential sweeps never
                                // sleep.
  Dfs faulted_dfs;
  ExecutionContext variant_ctx;
  variant_ctx.pool = options.pool;
  variant_ctx.dfs = &faulted_dfs;
  variant_ctx.options.shuffle_memory_budget = options.shuffle_memory_budget;
  variant_ctx.faults =
      options.fault_plan != nullptr ? options.fault_plan : &plan;
  variant_ctx.retry = &retry;
  StatusOr<JoinRunResult> faulted = Status::Internal("variant did not run");
  {
    IsaPin pin(options.isa);
    faulted = workload.run(variant_ctx);
  }
  if (!faulted.ok()) {
    outcome.mismatch = StrFormat("%s: faulted run failed: %s",
                                 workload.name.c_str(),
                                 faulted.status().ToString().c_str());
    return outcome;
  }

  for (const JobStats& job : faulted.value().stats.jobs) {
    for (const PhaseFaultStats* f : {&job.map_faults, &job.reduce_faults}) {
      outcome.attempts += f->attempts;
      outcome.retries += f->retries;
      outcome.speculative += f->speculative;
      outcome.wasted_records += f->wasted_records;
      outcome.wasted_seconds += f->wasted_seconds;
      outcome.backoff_seconds += f->backoff_seconds;
    }
    outcome.spilled_runs += job.spill.spilled_runs;
    outcome.spill_flush_retries += job.spill.flush_retries;
    outcome.spill_wasted_flush_bytes += job.spill.wasted_flush_bytes;
    for (const auto& [name, value] : job.user_counters) {
      outcome.user_counters[name] += value;
    }
  }
  outcome.num_tuples = faulted.value().num_tuples;

  // Exactly-once, checked in rising order of subtlety: the oracle, the
  // byte-identical tuple vector, the per-job statistics and counters, and
  // the DFS ledger (no phantom bytes from discarded attempts).
  if (faulted.value().tuples != expected) {
    outcome.mismatch = StrFormat(
        "faulted run diverged from brute force (%zu vs %zu tuples)",
        faulted.value().tuples.size(), expected.size());
    return outcome;
  }
  if (faulted.value().tuples != baseline.value().tuples) {
    outcome.mismatch = "faulted tuples != fault-free tuples";
    return outcome;
  }
  if (faulted.value().num_tuples != baseline.value().num_tuples) {
    outcome.mismatch = StrFormat(
        "num_tuples %lld vs %lld under faults",
        static_cast<long long>(baseline.value().num_tuples),
        static_cast<long long>(faulted.value().num_tuples));
    return outcome;
  }
  outcome.mismatch =
      CompareJobStats(baseline.value().stats, faulted.value().stats);
  if (!outcome.mismatch.empty()) return outcome;
  if (faulted_dfs.bytes_written() != baseline_dfs.bytes_written() ||
      faulted_dfs.records_written() != baseline_dfs.records_written()) {
    outcome.mismatch = StrFormat(
        "DFS write ledger diverged: %lld bytes / %lld records vs baseline "
        "%lld / %lld",
        static_cast<long long>(faulted_dfs.bytes_written()),
        static_cast<long long>(faulted_dfs.records_written()),
        static_cast<long long>(baseline_dfs.bytes_written()),
        static_cast<long long>(baseline_dfs.records_written()));
    return outcome;
  }
  if (faulted_dfs.live_bytes() != baseline_dfs.live_bytes() ||
      faulted_dfs.live_records() != baseline_dfs.live_records()) {
    outcome.mismatch = StrFormat(
        "DFS live datasets diverged: %lld bytes vs baseline %lld",
        static_cast<long long>(faulted_dfs.live_bytes()),
        static_cast<long long>(baseline_dfs.live_bytes()));
    return outcome;
  }
  // Committed writes must be exactly the live datasets: every part file is
  // committed once, never re-committed by a discarded attempt.
  if (faulted_dfs.bytes_written() != faulted_dfs.live_bytes()) {
    outcome.mismatch = StrFormat(
        "DFS bytes_written %lld != live bytes %lld (phantom attempt bytes)",
        static_cast<long long>(faulted_dfs.bytes_written()),
        static_cast<long long>(faulted_dfs.live_bytes()));
    return outcome;
  }
  return outcome;
}

}  // namespace mwsj::testing
