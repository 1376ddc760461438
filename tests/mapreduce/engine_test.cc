// Map-reduce engine semantics: shuffle routing, grouping, determinism,
// counters.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/str_format.h"
#include "mapreduce/engine.h"

namespace mwsj {
namespace {

using WordCountJob = MapReduceJob<std::string, std::string, int,
                                  std::pair<std::string, int>>;

TEST(EngineTest, WordCount) {
  const std::vector<std::string> input = {"a b", "b c", "c c"};
  WordCountJob job("wordcount", 4);
  job.set_map([](const std::string& line, WordCountJob::Emitter& emit) {
    size_t pos = 0;
    while (pos < line.size()) {
      size_t end = line.find(' ', pos);
      if (end == std::string::npos) end = line.size();
      emit.Emit(line.substr(pos, end - pos), 1);
      pos = end + 1;
    }
  });
  job.set_reduce([](const std::string& word, std::span<const int> counts,
                    WordCountJob::OutEmitter& out) {
    int total = 0;
    for (int c : counts) total += c;
    out.Emit({word, total});
  });

  std::vector<std::pair<std::string, int>> output;
  const JobStats stats = job.Run(std::span<const std::string>(input), &output);

  std::map<std::string, int> result(output.begin(), output.end());
  EXPECT_EQ(result, (std::map<std::string, int>{{"a", 1}, {"b", 2}, {"c", 3}}));
  EXPECT_EQ(stats.map_input_records, 3);
  EXPECT_EQ(stats.intermediate_records, 6);
  EXPECT_EQ(stats.reduce_output_records, 3);
  EXPECT_EQ(stats.num_reducers, 4);
}

using IntJob = MapReduceJob<int, int, int, std::pair<int, int>>;

TEST(EngineTest, IdentityPartitionRoutesKeyToReducer) {
  const std::vector<int> input = {0, 1, 2, 3, 0, 1};
  IntJob job("identity", 4);
  job.set_partition([](const int& k) { return k; });
  job.set_map([](const int& v, IntJob::Emitter& emit) { emit.Emit(v, v); });
  job.set_reduce([](const int& k, std::span<const int> vals,
                    IntJob::OutEmitter& out) {
    out.Emit({k, static_cast<int>(vals.size())});
  });
  std::vector<std::pair<int, int>> output;
  const JobStats stats = job.Run(std::span<const int>(input), &output);

  ASSERT_EQ(stats.per_reducer_records.size(), 4u);
  EXPECT_EQ(stats.per_reducer_records[0], 2);
  EXPECT_EQ(stats.per_reducer_records[1], 2);
  EXPECT_EQ(stats.per_reducer_records[2], 1);
  EXPECT_EQ(stats.per_reducer_records[3], 1);
  EXPECT_EQ(stats.MaxReducerRecords(), 2);
}

TEST(EngineTest, ValuesArriveGroupedAndInArrivalOrder) {
  // All values of one key reach a single reduce call, ordered by original
  // input position (Hadoop-like merge of mapper outputs).
  std::vector<int> input;
  for (int i = 0; i < 500; ++i) input.push_back(i);
  using SeqJob = MapReduceJob<int, int, int, int>;
  SeqJob job("grouping", 3);
  job.set_map([](const int& v, SeqJob::Emitter& emit) {
    emit.Emit(v % 7, v);
  });
  job.set_partition([](const int& k) { return k % 3; });
  int reduce_calls = 0;
  job.set_reduce([&reduce_calls](const int& k, std::span<const int> vals,
                                 SeqJob::OutEmitter& out) {
    ++reduce_calls;
    int prev = -1;
    for (int v : vals) {
      EXPECT_EQ(v % 7, k);
      EXPECT_GT(v, prev);  // Arrival order = input order.
      prev = v;
      out.Emit(v);
    }
  });
  std::vector<int> output;
  job.Run(std::span<const int>(input), &output);
  EXPECT_EQ(reduce_calls, 7);
  EXPECT_EQ(output.size(), 500u);
}

TEST(EngineTest, DeterministicAcrossThreadCounts) {
  std::vector<int> input;
  for (int i = 0; i < 2000; ++i) input.push_back(i * 37 % 1000);

  auto run = [&input](ThreadPool* pool, JobStats* stats) {
    using SeqJob = MapReduceJob<int, int, int, int>;
    SeqJob job("determinism", 8);
    job.set_map([](const int& v, SeqJob::Emitter& emit) {
      emit.Emit(v % 31, v);
    });
    job.set_reduce([](const int&, std::span<const int> vals,
                      SeqJob::OutEmitter& out) {
      for (int v : vals) out.Emit(v);
    });
    std::vector<int> output;
    *stats = job.Run(std::span<const int>(input), &output,
                     ExecutionContext(pool));
    return output;
  };

  JobStats serial_stats;
  const std::vector<int> serial = run(nullptr, &serial_stats);
  ThreadPool pool(4);
  JobStats parallel_stats;
  const std::vector<int> parallel = run(&pool, &parallel_stats);
  EXPECT_EQ(serial, parallel);
  // All accounting (not just output) must be scheduling-independent.
  EXPECT_EQ(serial_stats.intermediate_records,
            parallel_stats.intermediate_records);
  EXPECT_EQ(serial_stats.intermediate_bytes, parallel_stats.intermediate_bytes);
  EXPECT_EQ(serial_stats.per_reducer_records,
            parallel_stats.per_reducer_records);
  EXPECT_EQ(serial_stats.per_chunk_map_seconds.size(),
            parallel_stats.per_chunk_map_seconds.size());
}

TEST(EngineTest, StringOutputsByteIdenticalSerialVsPool) {
  // Variable-length keys/values across many reducers and chunks: the
  // concatenated output must be byte-for-byte identical with and without a
  // pool (mapper-partitioned shuffle keeps chunk-major order).
  std::vector<int> input;
  for (int i = 0; i < 5000; ++i) input.push_back(i * 7919 % 997);

  auto run = [&input](ThreadPool* pool) {
    using StrJob = MapReduceJob<int, std::string, std::string, std::string>;
    StrJob job("strings", 64);
    job.set_map([](const int& v, StrJob::Emitter& emit) {
      emit.Emit("k" + std::to_string(v % 100), "v" + std::to_string(v));
    });
    job.set_reduce([](const std::string& k, std::span<const std::string> vals,
                      StrJob::OutEmitter& out) {
      std::string joined = k + ":";
      for (const std::string& v : vals) joined += v + ",";
      out.Emit(std::move(joined));
    });
    std::vector<std::string> output;
    job.Run(std::span<const int>(input), &output, ExecutionContext(pool));
    std::string bytes;
    for (const std::string& s : output) bytes += s + "\n";
    return bytes;
  };

  const std::string serial = run(nullptr);
  for (size_t threads : {2u, 4u, 7u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(serial, run(&pool)) << threads << " threads";
  }
}

TEST(EngineTest, GroupByMatchesPairSortGolden) {
  // Golden comparison for the SoA reduce path: the engine's contract is
  // that each reducer stable-sorts its arrival-ordered pairs by key and
  // reduces each group in key order. Simulate exactly that with an
  // independent pair-based reference and require byte-for-byte identical
  // output, with and without a thread pool.
  std::vector<int> input;
  for (int i = 0; i < 3000; ++i) input.push_back(i * 31 % 257);
  const int num_reducers = 8;

  auto key_of = [](int v) { return "k" + std::to_string(v % 53); };
  auto value_of = [](int v) { return "v" + std::to_string(v); };
  auto partition_of = [](const std::string& k) {
    return static_cast<int>(std::hash<std::string>{}(k) % 8);
  };
  auto render = [](const std::string& k,
                   std::span<const std::string> vals) {
    std::string s = k + "=";
    for (const std::string& v : vals) s += v + ";";
    return s;
  };

  // Reference: arrival order is input order (one emit per record), split
  // by reducer, stable-sorted by key as (key, value) pairs — the pre-SoA
  // group-by — then rendered group by group in reducer-major order.
  std::vector<std::string> golden;
  for (int r = 0; r < num_reducers; ++r) {
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int v : input) {
      const std::string k = key_of(v);
      if (partition_of(k) == r) pairs.emplace_back(k, value_of(v));
    }
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    size_t i = 0;
    while (i < pairs.size()) {
      size_t j = i;
      std::vector<std::string> vals;
      while (j < pairs.size() && pairs[j].first == pairs[i].first) {
        vals.push_back(pairs[j].second);
        ++j;
      }
      golden.push_back(
          render(pairs[i].first, std::span<const std::string>(vals)));
      i = j;
    }
  }

  auto run = [&](ThreadPool* pool) {
    using StrJob = MapReduceJob<int, std::string, std::string, std::string>;
    StrJob job("golden_group_by", num_reducers);
    job.set_partition(partition_of);
    job.set_map([&](const int& v, StrJob::Emitter& emit) {
      emit.Emit(key_of(v), value_of(v));
    });
    job.set_reduce([&](const std::string& k,
                       std::span<const std::string> vals,
                       StrJob::OutEmitter& out) {
      out.Emit(render(k, vals));
    });
    std::vector<std::string> output;
    job.Run(std::span<const int>(input), &output, ExecutionContext(pool));
    return output;
  };

  EXPECT_EQ(run(nullptr), golden);
  ThreadPool pool(4);
  EXPECT_EQ(run(&pool), golden);
}

TEST(EngineTest, PhaseTimingsArePopulated) {
  std::vector<int> input;
  for (int i = 0; i < 1000; ++i) input.push_back(i);
  using SeqJob = MapReduceJob<int, int, int, int>;
  SeqJob job("phases", 4);
  job.set_map([](const int& v, SeqJob::Emitter& emit) { emit.Emit(v % 4, v); });
  job.set_reduce([](const int&, std::span<const int> vals,
                    SeqJob::OutEmitter& out) {
    for (int v : vals) out.Emit(v);
  });
  std::vector<int> output;
  const JobStats stats = job.Run(std::span<const int>(input), &output);

  EXPECT_GT(stats.map_seconds, 0.0);
  EXPECT_GT(stats.shuffle_seconds, 0.0);
  EXPECT_GT(stats.reduce_seconds, 0.0);
  // 1000 inputs in ceil(1000/64)-sized chunks -> 63 chunks of 16.
  EXPECT_EQ(stats.per_chunk_map_seconds.size(), 63u);
  EXPECT_GE(stats.MaxMapChunkSeconds(), 0.0);
  EXPECT_GE(stats.SumMapChunkSeconds(), 0.0);
  // The three phases account for (almost) the whole job.
  EXPECT_LE(stats.PhaseSeconds(), stats.wall_seconds);
  EXPECT_DOUBLE_EQ(stats.PhaseSeconds(),
                   stats.map_seconds + stats.shuffle_seconds +
                       stats.reduce_seconds);
}

TEST(EngineTest, RunTwiceDoesNotDoubleCountUserCounters) {
  IntJob job("rerun", 2);
  job.set_partition([](const int& k) { return k % 2; });
  job.set_map([](const int& v, IntJob::Emitter& emit) {
    emit.IncrementCounter("mapped", 1);
    emit.Emit(v, v);
  });
  job.set_reduce([](const int&, std::span<const int>,
                    IntJob::OutEmitter&) {});
  const std::vector<int> input = {1, 2, 3, 4};

  std::vector<std::pair<int, int>> output;
  const JobStats first = job.Run(std::span<const int>(input), &output);
  EXPECT_EQ(first.user_counters.at("mapped"), 4);
  const JobStats second = job.Run(std::span<const int>(input), &output);
  EXPECT_EQ(second.user_counters.at("mapped"), 4);  // Not 8: counters reset.
}

TEST(EngineTest, EmptyInputProducesEmptyOutputAndZeroCounters) {
  IntJob job("empty", 2);
  job.set_map([](const int& v, IntJob::Emitter& emit) { emit.Emit(v, v); });
  job.set_reduce([](const int&, std::span<const int>,
                    IntJob::OutEmitter&) { FAIL() << "no reduce expected"; });
  std::vector<std::pair<int, int>> output;
  const JobStats stats = job.Run(std::span<const int>(), &output);
  EXPECT_TRUE(output.empty());
  EXPECT_EQ(stats.map_input_records, 0);
  EXPECT_EQ(stats.intermediate_records, 0);
}

TEST(EngineTest, UserCountersAreCollected) {
  IntJob job("counters", 2);
  job.set_partition([](const int& k) { return k % 2; });
  job.set_map([](const int& v, IntJob::Emitter& emit) {
    if (v % 2 == 0) emit.IncrementCounter("evens", 1);
    emit.Emit(v, v);
  });
  job.set_reduce([](const int&, std::span<const int>,
                    IntJob::OutEmitter&) {});
  const std::vector<int> input = {1, 2, 3, 4, 5, 6};
  std::vector<std::pair<int, int>> output;
  const JobStats stats = job.Run(std::span<const int>(input), &output);
  EXPECT_EQ(stats.user_counters.at("evens"), 3);
}

TEST(EngineTest, ValueSizeDrivesIntermediateBytes) {
  IntJob job("bytes", 2);
  job.set_partition([](const int& k) { return k % 2; });
  job.set_value_size([](const int&) { return int64_t{100}; });
  job.set_map([](const int& v, IntJob::Emitter& emit) { emit.Emit(v, v); });
  job.set_reduce([](const int&, std::span<const int>,
                    IntJob::OutEmitter&) {});
  const std::vector<int> input = {1, 2, 3};
  std::vector<std::pair<int, int>> output;
  const JobStats stats = job.Run(std::span<const int>(input), &output);
  EXPECT_EQ(stats.intermediate_bytes, 300);
}

TEST(EngineDeathTest, PartitionResultAboveRangeAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  IntJob job("bad_partition_high", 4);
  job.set_partition([](const int& k) { return k; });  // Key 9 -> reducer 9.
  job.set_map([](const int& v, IntJob::Emitter& emit) { emit.Emit(v, v); });
  job.set_reduce([](const int&, std::span<const int>, IntJob::OutEmitter&) {});
  const std::vector<int> input = {9};
  std::vector<std::pair<int, int>> output;
  EXPECT_DEATH(job.Run(std::span<const int>(input), &output),
               "MapReduceJob 'bad_partition_high': partition function "
               "returned 9 for key 9");
}

TEST(EngineDeathTest, PartitionResultNegativeAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  IntJob job("bad_partition_negative", 4);
  job.set_partition([](const int&) { return -2; });
  job.set_map([](const int& v, IntJob::Emitter& emit) { emit.Emit(v, v); });
  job.set_reduce([](const int&, std::span<const int>, IntJob::OutEmitter&) {});
  const std::vector<int> input = {1};
  std::vector<std::pair<int, int>> output;
  EXPECT_DEATH(job.Run(std::span<const int>(input), &output),
               "partition function returned -2");
}

TEST(EngineTest, DefaultContextMatchesExplicitContext) {
  std::vector<int> input;
  for (int i = 0; i < 300; ++i) input.push_back(i * 13 % 97);

  auto make_job = []() {
    using SeqJob = MapReduceJob<int, int, int, int>;
    auto job = std::make_unique<SeqJob>("ctx_vs_shim", 8);
    job->set_map([](const int& v, SeqJob::Emitter& emit) {
      emit.Emit(v % 8, v);
    });
    job->set_partition([](const int& k) { return k; });
    job->set_reduce([](const int&, std::span<const int> vals,
                       SeqJob::OutEmitter& out) {
      for (int v : vals) out.Emit(v);
    });
    return job;
  };

  std::vector<int> via_default, via_ctx;
  const JobStats default_stats =
      make_job()->Run(std::span<const int>(input), &via_default);
  ThreadPool pool(3);
  Tracer tracer;
  const JobStats ctx_stats = make_job()->Run(std::span<const int>(input),
                                             &via_ctx,
                                             ExecutionContext(&pool, &tracer));
  EXPECT_EQ(via_default, via_ctx);
  EXPECT_EQ(default_stats.intermediate_records, ctx_stats.intermediate_records);
  EXPECT_EQ(default_stats.per_reducer_records, ctx_stats.per_reducer_records);
  EXPECT_GT(tracer.event_count(), 0);
}

TEST(EngineTest, TracerRecordsJobPhaseAndTaskSpans) {
  std::vector<int> input;
  for (int i = 0; i < 200; ++i) input.push_back(i);
  using SeqJob = MapReduceJob<int, int, int, int>;
  SeqJob job("traced_job", 4);
  job.set_partition([](const int& k) { return k; });
  job.set_map([](const int& v, SeqJob::Emitter& emit) { emit.Emit(v % 4, v); });
  job.set_reduce([](const int&, std::span<const int> vals,
                    SeqJob::OutEmitter& out) {
    for (int v : vals) out.Emit(v);
  });

  // One span set whatever the shuffle budget: unlimited, and a budget so
  // small that every map chunk spills.
  for (const int64_t budget : {int64_t{-1}, int64_t{1}}) {
    Tracer tracer;
    std::vector<int> output;
    ExecutionContext ctx(nullptr, &tracer);
    ctx.options.shuffle_memory_budget = budget;
    job.Run(std::span<const int>(input), &output, ctx);

    const std::string json = tracer.ToJson();
    for (const char* span_name : {"traced_job", "map", "shuffle", "reduce",
                                  "map_chunk", "reduce_task"}) {
      EXPECT_NE(json.find(StrFormat("\"name\": \"%s\"", span_name)),
                std::string::npos)
          << "missing span " << span_name << " at budget " << budget;
    }
  }
}

TEST(RunStatsTest, AggregationAcrossJobs) {
  RunStats run;
  JobStats a;
  a.intermediate_records = 10;
  a.intermediate_bytes = 100;
  a.wall_seconds = 1.5;
  a.user_counters["marked"] = 4;
  JobStats b;
  b.intermediate_records = 5;
  b.intermediate_bytes = 50;
  b.wall_seconds = 0.5;
  b.user_counters["marked"] = 2;
  run.Add(a);
  run.Add(b);
  EXPECT_EQ(run.TotalIntermediateRecords(), 15);
  EXPECT_EQ(run.TotalIntermediateBytes(), 150);
  EXPECT_DOUBLE_EQ(run.total_wall_seconds, 2.0);
  EXPECT_EQ(run.UserCounter("marked"), 6);
  EXPECT_EQ(run.UserCounter("absent"), 0);
}

}  // namespace
}  // namespace mwsj
