#include "core/explain.h"

#include <algorithm>
#include <cmath>

#include "common/str_format.h"

namespace mwsj {

namespace {

std::string LoadBar(double fraction, int width = 24) {
  const int filled = static_cast<int>(std::lround(fraction * width));
  std::string bar;
  for (int i = 0; i < width; ++i) bar += (i < filled) ? '#' : '.';
  return bar;
}

std::string HumanBytes(double bytes) {
  if (bytes >= 1024.0 * 1024 * 1024) {
    return StrFormat("%.1f GiB", bytes / (1024.0 * 1024 * 1024));
  }
  if (bytes >= 1024.0 * 1024) return StrFormat("%.1f MiB", bytes / (1024.0 * 1024));
  if (bytes >= 1024.0) return StrFormat("%.1f KiB", bytes / 1024.0);
  return StrFormat("%.0f B", bytes);
}

}  // namespace

std::string ExplainRun(const Query& query, const JoinRunResult& result,
                       const CostModel& model) {
  std::string out;
  out += StrFormat("query: %s\n", query.ToString().c_str());
  out += StrFormat("output tuples: %lld\n",
                   static_cast<long long>(result.num_tuples));

  for (size_t j = 0; j < result.stats.jobs.size(); ++j) {
    const JobStats& job = result.stats.jobs[j];
    out += StrFormat("\njob %zu/%zu: %s\n", j + 1, result.stats.jobs.size(),
                     job.job_name.c_str());
    out += StrFormat(
        "  map: %lld records in (%s); shuffle: %lld records (%s)\n",
        static_cast<long long>(job.map_input_records),
        HumanBytes(static_cast<double>(job.map_input_bytes)).c_str(),
        static_cast<long long>(job.intermediate_records),
        HumanBytes(static_cast<double>(job.intermediate_bytes)).c_str());
    out += StrFormat("  reduce: %lld records out across %d reducers\n",
                     static_cast<long long>(job.reduce_output_records),
                     job.num_reducers);
    out += StrFormat(
        "  phase time: map %.3fs (%zu chunks, slowest %.3fs) | "
        "shuffle %.3fs | reduce %.3fs\n",
        job.map_seconds, job.per_chunk_map_seconds.size(),
        job.MaxMapChunkSeconds(), job.shuffle_seconds, job.reduce_seconds);
    if (job.wall_seconds > 0) {
      const double wall = job.wall_seconds;
      out += StrFormat(
          "  phase share: map %s %.0f%% | shuffle %s %.0f%% | "
          "reduce %s %.0f%%\n",
          LoadBar(job.map_seconds / wall, 10).c_str(),
          100.0 * job.map_seconds / wall,
          LoadBar(job.shuffle_seconds / wall, 10).c_str(),
          100.0 * job.shuffle_seconds / wall,
          LoadBar(job.reduce_seconds / wall, 10).c_str(),
          100.0 * job.reduce_seconds / wall);
    }

    if (!job.per_reducer_records.empty()) {
      std::vector<int64_t> loads = job.per_reducer_records;
      std::sort(loads.begin(), loads.end());
      const int64_t min = loads.front();
      const int64_t max = loads.back();
      const int64_t median = loads[loads.size() / 2];
      const double avg = static_cast<double>(job.intermediate_records) /
                         static_cast<double>(loads.size());
      out += StrFormat(
          "  reducer load: min %lld / median %lld / max %lld (skew %.2fx)\n",
          static_cast<long long>(min), static_cast<long long>(median),
          static_cast<long long>(max), avg > 0 ? max / avg : 0.0);
      // A small load histogram across reducer-id order (spatial layout).
      if (max > 0 && loads.size() >= 4) {
        const size_t buckets = std::min<size_t>(8, loads.size());
        out += "  load by reducer range:\n";
        const auto& records = job.per_reducer_records;
        const size_t per_bucket = (records.size() + buckets - 1) / buckets;
        for (size_t b = 0; b < buckets; ++b) {
          int64_t sum = 0;
          size_t count = 0;
          for (size_t r = b * per_bucket;
               r < std::min(records.size(), (b + 1) * per_bucket); ++r) {
            sum += records[r];
            ++count;
          }
          if (count == 0) continue;
          const double bucket_avg =
              static_cast<double>(sum) / static_cast<double>(count);
          out += StrFormat(
              "    [%3zu..%3zu] %s %.0f\n", b * per_bucket,
              std::min(records.size(), (b + 1) * per_bucket) - 1,
              LoadBar(bucket_avg / static_cast<double>(max)).c_str(),
              bucket_avg);
        }
      }
    }
    out += StrFormat("  reduce time: total %.3fs, slowest task %.3fs\n",
                     job.SumReducerSeconds(), job.MaxReducerSeconds());
    if (job.spill.active()) {
      const SpillStats& s = job.spill;
      out += StrFormat(
          "  spill: budget %s | %lld/%zu chunks spilled, %lld runs "
          "(widest merge %lld)\n",
          HumanBytes(static_cast<double>(s.budget_bytes)).c_str(),
          static_cast<long long>(s.spilled_chunks),
          job.per_chunk_map_seconds.size(),
          static_cast<long long>(s.spilled_runs),
          static_cast<long long>(s.merge_runs_max));
      if (s.spilled_runs > 0) {
        out += StrFormat(
            "  spill bytes: %s raw -> %s stored (%.2fx compression)\n",
            HumanBytes(static_cast<double>(s.spilled_raw_bytes)).c_str(),
            HumanBytes(static_cast<double>(s.spilled_stored_bytes)).c_str(),
            s.CompressionRatio());
      }
      out += StrFormat(
          "  peak memory: shuffle resident %s | largest inbox %s\n",
          HumanBytes(static_cast<double>(s.peak_shuffle_bytes)).c_str(),
          HumanBytes(static_cast<double>(s.peak_inbox_bytes)).c_str());
    }
    if (job.AnyFaults()) {
      const PhaseFaultStats& m = job.map_faults;
      const PhaseFaultStats& r = job.reduce_faults;
      out += StrFormat(
          "  faults: map %lld/%lld attempts (%lld retries, %lld "
          "speculative) | reduce %lld/%lld attempts (%lld retries, %lld "
          "speculative)\n",
          static_cast<long long>(m.attempts), static_cast<long long>(m.tasks),
          static_cast<long long>(m.retries),
          static_cast<long long>(m.speculative),
          static_cast<long long>(r.attempts), static_cast<long long>(r.tasks),
          static_cast<long long>(r.retries),
          static_cast<long long>(r.speculative));
      out += StrFormat(
          "  wasted: %lld records (%s) in %.3fs, backoff %.3fs\n",
          static_cast<long long>(m.wasted_records + r.wasted_records),
          HumanBytes(static_cast<double>(m.wasted_bytes + r.wasted_bytes))
              .c_str(),
          m.wasted_seconds + r.wasted_seconds,
          m.backoff_seconds + r.backoff_seconds);
    }
    for (const auto& [name, value] : job.user_counters) {
      out += StrFormat("  counter %s = %lld\n", name.c_str(),
                       static_cast<long long>(value));
    }
  }

  // Derived knn-mr metrics (queries/knn_mr.h): summed across jobs because
  // the exporting rounds are separate engine jobs of one run.
  int64_t knn_points = 0;
  int64_t knn_point_copies = 0;
  int64_t knn_bounded_points = 0;
  int64_t knn_candidates = 0;
  int64_t knn_probe_hits = 0;
  for (const JobStats& job : result.stats.jobs) {
    const auto counter = [&job](const char* name) {
      const auto it = job.user_counters.find(name);
      return it != job.user_counters.end() ? it->second : int64_t{0};
    };
    knn_points += counter(kCounterKnnPoints);
    knn_point_copies += counter(kCounterKnnPointCopies);
    knn_bounded_points += counter(kCounterKnnBoundedPoints);
    knn_candidates += counter(kCounterKnnCandidates);
    knn_probe_hits += counter(kCounterKnnProbeHits);
  }
  if (knn_points > 0) {
    const double points = static_cast<double>(knn_points);
    out += StrFormat(
        "\nknn: replication factor %.2f | candidates/point %.2f | "
        "probe hits/copy %.2f | "
        "bound tightness %.0f%% (%lld/%lld points bounded)\n",
        static_cast<double>(knn_point_copies) / points,
        static_cast<double>(knn_candidates) / points,
        knn_point_copies > 0 ? static_cast<double>(knn_probe_hits) /
                                   static_cast<double>(knn_point_copies)
                             : 0.0,
        100.0 * static_cast<double>(knn_bounded_points) / points,
        static_cast<long long>(knn_bounded_points),
        static_cast<long long>(knn_points));
  }

  out += StrFormat("\ntotal wall time: %.3fs | post-join: %.3fs\n",
                   result.stats.total_wall_seconds,
                   result.stats.post_join_seconds);
  out += StrFormat("modeled cluster time: %s\n",
                   FormatHhMm(model.RunSeconds(result.stats)).c_str());
  return out;
}

}  // namespace mwsj
