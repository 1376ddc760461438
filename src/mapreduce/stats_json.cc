#include "mapreduce/stats_json.h"

#include "common/str_format.h"

namespace mwsj {

namespace {

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string PhaseFaultsToJson(const PhaseFaultStats& f) {
  return StrFormat(
      "{\"tasks\": %lld, \"attempts\": %lld, \"retries\": %lld, "
      "\"speculative\": %lld, \"wasted_records\": %lld, "
      "\"wasted_bytes\": %lld, \"wasted_seconds\": %.6f, "
      "\"backoff_seconds\": %.6f}",
      static_cast<long long>(f.tasks), static_cast<long long>(f.attempts),
      static_cast<long long>(f.retries),
      static_cast<long long>(f.speculative),
      static_cast<long long>(f.wasted_records),
      static_cast<long long>(f.wasted_bytes), f.wasted_seconds,
      f.backoff_seconds);
}

}  // namespace

std::string RunStatsToJson(const RunStats& stats) {
  std::string out = "{";
  out += StrFormat("\"total_wall_seconds\": %.6f", stats.total_wall_seconds);
  out += StrFormat(", \"post_join_seconds\": %.6f", stats.post_join_seconds);
  // Catalog reuse accounting appears only when a DatasetCatalog was
  // actually consulted, so catalog-less stats documents are unchanged.
  if (stats.catalog_hits > 0 || stats.catalog_misses > 0) {
    out += StrFormat(", \"catalog\": {\"hits\": %lld, \"misses\": %lld}",
                     static_cast<long long>(stats.catalog_hits),
                     static_cast<long long>(stats.catalog_misses));
  }
  out += ", \"jobs\": [";
  for (size_t j = 0; j < stats.jobs.size(); ++j) {
    const JobStats& job = stats.jobs[j];
    if (j > 0) out += ", ";
    out += "{";
    out += StrFormat("\"name\": \"%s\"", EscapeJson(job.job_name).c_str());
    // Present only for scheduler-submitted jobs; standalone runs keep the
    // pre-scheduler document byte-identical.
    if (job.job_id >= 0) {
      out += StrFormat(", \"job_id\": %lld",
                       static_cast<long long>(job.job_id));
    }
    out += StrFormat(", \"map_input_records\": %lld",
                     static_cast<long long>(job.map_input_records));
    out += StrFormat(", \"map_input_bytes\": %lld",
                     static_cast<long long>(job.map_input_bytes));
    out += StrFormat(", \"intermediate_records\": %lld",
                     static_cast<long long>(job.intermediate_records));
    out += StrFormat(", \"intermediate_bytes\": %lld",
                     static_cast<long long>(job.intermediate_bytes));
    out += StrFormat(", \"reduce_output_records\": %lld",
                     static_cast<long long>(job.reduce_output_records));
    out += StrFormat(", \"reduce_output_bytes\": %lld",
                     static_cast<long long>(job.reduce_output_bytes));
    out += StrFormat(", \"num_reducers\": %d", job.num_reducers);
    out += StrFormat(", \"max_reducer_records\": %lld",
                     static_cast<long long>(job.MaxReducerRecords()));
    out += StrFormat(", \"reduce_seconds_total\": %.6f",
                     job.SumReducerSeconds());
    out += StrFormat(", \"reduce_seconds_max\": %.6f",
                     job.MaxReducerSeconds());
    out += StrFormat(", \"map_seconds\": %.6f", job.map_seconds);
    out += StrFormat(", \"shuffle_seconds\": %.6f", job.shuffle_seconds);
    out += StrFormat(", \"reduce_seconds\": %.6f", job.reduce_seconds);
    out += StrFormat(", \"map_chunks\": %zu",
                     job.per_chunk_map_seconds.size());
    out += StrFormat(", \"map_chunk_seconds_max\": %.6f",
                     job.MaxMapChunkSeconds());
    out += StrFormat(", \"wall_seconds\": %.6f", job.wall_seconds);
    out += StrFormat(
        ", \"phases\": {"
        "\"map\": {\"seconds\": %.6f, \"tasks\": %zu, "
        "\"max_task_seconds\": %.6f}, "
        "\"shuffle\": {\"seconds\": %.6f}, "
        "\"reduce\": {\"seconds\": %.6f, \"tasks\": %zu, "
        "\"max_task_seconds\": %.6f}}",
        job.map_seconds, job.per_chunk_map_seconds.size(),
        job.MaxMapChunkSeconds(), job.shuffle_seconds, job.reduce_seconds,
        job.per_reducer_seconds.size(), job.MaxReducerSeconds());
    // Out-of-core accounting appears only when the run had a shuffle
    // budget, so in-memory stats documents are unchanged.
    if (job.spill.active()) {
      out += StrFormat(
          ", \"spill\": {\"budget_bytes\": %lld, \"spilled_chunks\": %lld, "
          "\"spilled_runs\": %lld, \"spilled_raw_bytes\": %lld, "
          "\"spilled_stored_bytes\": %lld, \"compression_ratio\": %.4f, "
          "\"peak_shuffle_bytes\": %lld, \"peak_inbox_bytes\": %lld, "
          "\"merge_runs_max\": %lld, \"flush_retries\": %lld, "
          "\"wasted_flush_bytes\": %lld}",
          static_cast<long long>(job.spill.budget_bytes),
          static_cast<long long>(job.spill.spilled_chunks),
          static_cast<long long>(job.spill.spilled_runs),
          static_cast<long long>(job.spill.spilled_raw_bytes),
          static_cast<long long>(job.spill.spilled_stored_bytes),
          job.spill.CompressionRatio(),
          static_cast<long long>(job.spill.peak_shuffle_bytes),
          static_cast<long long>(job.spill.peak_inbox_bytes),
          static_cast<long long>(job.spill.merge_runs_max),
          static_cast<long long>(job.spill.flush_retries),
          static_cast<long long>(job.spill.wasted_flush_bytes));
    }
    // Fault-recovery accounting appears only when an attempt actually
    // faulted, so fault-free stats documents are unchanged.
    if (job.AnyFaults()) {
      out += ", \"faults\": {\"map\": ";
      out += PhaseFaultsToJson(job.map_faults);
      out += ", \"reduce\": ";
      out += PhaseFaultsToJson(job.reduce_faults);
      out += "}";
    }
    out += ", \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : job.user_counters) {  // std::map: sorted.
      if (!first) out += ", ";
      first = false;
      out += StrFormat("\"%s\": %lld", EscapeJson(name).c_str(),
                       static_cast<long long>(value));
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace mwsj
