#include "mapreduce/counters.h"

#include <algorithm>
#include <numeric>

namespace mwsj {

bool PhaseFaultStats::Any() const {
  return retries > 0 || speculative > 0 || wasted_records > 0 ||
         wasted_bytes > 0 || wasted_seconds > 0 || backoff_seconds > 0;
}

void PhaseFaultStats::Add(const PhaseFaultStats& other) {
  tasks += other.tasks;
  attempts += other.attempts;
  retries += other.retries;
  speculative += other.speculative;
  wasted_records += other.wasted_records;
  wasted_bytes += other.wasted_bytes;
  wasted_seconds += other.wasted_seconds;
  backoff_seconds += other.backoff_seconds;
}

double SpillStats::CompressionRatio() const {
  if (spilled_stored_bytes <= 0) return 0;
  return static_cast<double>(spilled_raw_bytes) /
         static_cast<double>(spilled_stored_bytes);
}

void SpillStats::Add(const SpillStats& other) {
  budget_bytes = std::max(budget_bytes, other.budget_bytes);
  spilled_chunks += other.spilled_chunks;
  spilled_runs += other.spilled_runs;
  spilled_raw_bytes += other.spilled_raw_bytes;
  spilled_stored_bytes += other.spilled_stored_bytes;
  flush_retries += other.flush_retries;
  wasted_flush_bytes += other.wasted_flush_bytes;
  peak_shuffle_bytes = std::max(peak_shuffle_bytes, other.peak_shuffle_bytes);
  peak_inbox_bytes = std::max(peak_inbox_bytes, other.peak_inbox_bytes);
  merge_runs_max = std::max(merge_runs_max, other.merge_runs_max);
}

bool JobStats::AnyFaults() const {
  return map_faults.Any() || reduce_faults.Any();
}

int64_t JobStats::MaxReducerRecords() const {
  if (per_reducer_records.empty()) return 0;
  return *std::max_element(per_reducer_records.begin(),
                           per_reducer_records.end());
}

double JobStats::MaxReducerSeconds() const {
  if (per_reducer_seconds.empty()) return 0;
  return *std::max_element(per_reducer_seconds.begin(),
                           per_reducer_seconds.end());
}

double JobStats::SumReducerSeconds() const {
  return std::accumulate(per_reducer_seconds.begin(),
                         per_reducer_seconds.end(), 0.0);
}

double JobStats::MaxMapChunkSeconds() const {
  if (per_chunk_map_seconds.empty()) return 0;
  return *std::max_element(per_chunk_map_seconds.begin(),
                           per_chunk_map_seconds.end());
}

double JobStats::SumMapChunkSeconds() const {
  return std::accumulate(per_chunk_map_seconds.begin(),
                         per_chunk_map_seconds.end(), 0.0);
}

int64_t RunStats::UserCounter(const std::string& name) const {
  int64_t total = 0;
  for (const JobStats& j : jobs) {
    auto it = j.user_counters.find(name);
    if (it != j.user_counters.end()) total += it->second;
  }
  return total;
}

int64_t RunStats::TotalIntermediateRecords() const {
  int64_t total = 0;
  for (const JobStats& j : jobs) total += j.intermediate_records;
  return total;
}

void RunStats::Add(JobStats stats) {
  total_wall_seconds += stats.wall_seconds;
  jobs.push_back(std::move(stats));
}

}  // namespace mwsj
