// JSON stats export tests.

#include <gtest/gtest.h>

#include "mapreduce/stats_json.h"

namespace mwsj {
namespace {

TEST(StatsJsonTest, EmptyRun) {
  RunStats stats;
  EXPECT_EQ(RunStatsToJson(stats),
            "{\"total_wall_seconds\": 0.000000, \"post_join_seconds\": "
            "0.000000, \"jobs\": []}");
}

TEST(StatsJsonTest, FullJobFieldsAppear) {
  RunStats stats;
  JobStats job;
  job.job_name = "crep_round1_mark";
  job.map_input_records = 100;
  job.map_input_bytes = 4800;
  job.intermediate_records = 130;
  job.intermediate_bytes = 6240;
  job.reduce_output_records = 100;
  job.reduce_output_bytes = 4800;
  job.num_reducers = 4;
  job.per_reducer_records = {10, 50, 30, 40};
  job.per_reducer_seconds = {0.001, 0.004, 0.002, 0.003};
  job.per_chunk_map_seconds = {0.002, 0.005};
  job.map_seconds = 0.01;
  job.shuffle_seconds = 0.002;
  job.reduce_seconds = 0.015;
  job.wall_seconds = 0.05;
  job.user_counters["rectangles_replicated"] = 12;
  stats.Add(job);

  const std::string json = RunStatsToJson(stats);
  EXPECT_NE(json.find("\"name\": \"crep_round1_mark\""), std::string::npos);
  EXPECT_NE(json.find("\"intermediate_records\": 130"), std::string::npos);
  EXPECT_NE(json.find("\"max_reducer_records\": 50"), std::string::npos);
  EXPECT_NE(json.find("\"rectangles_replicated\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"num_reducers\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"map_seconds\": 0.010000"), std::string::npos);
  EXPECT_NE(json.find("\"shuffle_seconds\": 0.002000"), std::string::npos);
  EXPECT_NE(json.find("\"reduce_seconds\": 0.015000"), std::string::npos);
  EXPECT_NE(json.find("\"map_chunks\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"map_chunk_seconds_max\": 0.005000"),
            std::string::npos);
}

TEST(StatsJsonTest, SpillObjectAppearsOnlyWhenBudgeted) {
  RunStats stats;
  JobStats job;
  job.job_name = "budgeted";
  job.spill.budget_bytes = 65536;
  job.spill.spilled_chunks = 3;
  job.spill.spilled_runs = 24;
  job.spill.spilled_raw_bytes = 200000;
  job.spill.spilled_stored_bytes = 50000;
  job.spill.peak_shuffle_bytes = 40000;
  job.spill.peak_inbox_bytes = 9000;
  job.spill.merge_runs_max = 4;
  job.spill.flush_retries = 2;
  job.spill.wasted_flush_bytes = 123;
  stats.Add(job);

  const std::string json = RunStatsToJson(stats);
  EXPECT_NE(json.find("\"spill\": {"), std::string::npos);
  EXPECT_NE(json.find("\"budget_bytes\": 65536"), std::string::npos);
  EXPECT_NE(json.find("\"spilled_runs\": 24"), std::string::npos);
  EXPECT_NE(json.find("\"compression_ratio\": 4.0000"), std::string::npos);
  EXPECT_NE(json.find("\"peak_inbox_bytes\": 9000"), std::string::npos);
  EXPECT_NE(json.find("\"merge_runs_max\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"flush_retries\": 2"), std::string::npos);

  // An in-memory job (no budget) must not emit the object at all.
  RunStats plain;
  JobStats unbudgeted;
  unbudgeted.job_name = "inmemory";
  plain.Add(unbudgeted);
  EXPECT_EQ(RunStatsToJson(plain).find("\"spill\""), std::string::npos);
}

TEST(StatsJsonTest, PhasesObjectSummarizesPerPhaseTimings) {
  RunStats stats;
  JobStats job;
  job.job_name = "phased";
  job.num_reducers = 2;
  job.map_seconds = 0.01;
  job.shuffle_seconds = 0.002;
  job.reduce_seconds = 0.015;
  job.per_chunk_map_seconds = {0.002, 0.005, 0.003};
  job.per_reducer_seconds = {0.004, 0.011};
  stats.Add(job);

  const std::string json = RunStatsToJson(stats);
  EXPECT_NE(json.find("\"phases\": {"), std::string::npos) << json;
  EXPECT_NE(json.find("\"map\": {\"seconds\": 0.010000, \"tasks\": 3, "
                      "\"max_task_seconds\": 0.005000}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"shuffle\": {\"seconds\": 0.002000}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"reduce\": {\"seconds\": 0.015000, \"tasks\": 2, "
                      "\"max_task_seconds\": 0.011000}"),
            std::string::npos)
      << json;
}

TEST(StatsJsonTest, EscapesSpecialCharacters) {
  RunStats stats;
  JobStats job;
  job.job_name = "weird \"name\"\nwith\\stuff";
  stats.Add(job);
  const std::string json = RunStatsToJson(stats);
  EXPECT_NE(json.find("weird \\\"name\\\"\\nwith\\\\stuff"),
            std::string::npos);
}

TEST(StatsJsonTest, CountersAreSortedDeterministically) {
  RunStats stats;
  JobStats job;
  job.user_counters["zeta"] = 1;
  job.user_counters["alpha"] = 2;
  stats.Add(job);
  const std::string json = RunStatsToJson(stats);
  EXPECT_LT(json.find("alpha"), json.find("zeta"));
}

}  // namespace
}  // namespace mwsj
