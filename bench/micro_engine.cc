// Micro-benchmarks for the map-reduce engine substrate: shuffle and
// grouping throughput bounds every algorithm's fixed costs.

#include <benchmark/benchmark.h>

#include <memory>

#include "common/random.h"
#include "common/thread_pool.h"
#include "mapreduce/engine.h"
#include "mapreduce/fault.h"

namespace mwsj {
namespace {

using IntJob = MapReduceJob<int64_t, int32_t, int64_t, int64_t>;

void BM_ShuffleThroughput(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<int64_t> input;
  input.reserve(static_cast<size_t>(n));
  Rng rng(1);
  for (int64_t i = 0; i < n; ++i) input.push_back(rng.Next() >> 1);
  for (auto _ : state) {
    IntJob job("shuffle", 64);
    job.set_partition([](const int32_t& k) { return k & 63; });
    job.set_map([](const int64_t& v, IntJob::Emitter& emit) {
      emit.Emit(static_cast<int32_t>(v % 64), v);
    });
    job.set_reduce([](const int32_t&, std::span<const int64_t> vals,
                      IntJob::OutEmitter& out) {
      int64_t sum = 0;
      for (int64_t v : vals) sum += v;
      out.Emit(sum);
    });
    std::vector<int64_t> output;
    const JobStats stats = job.Run(std::span<const int64_t>(input), &output);
    benchmark::DoNotOptimize(stats.intermediate_records);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ShuffleThroughput)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_FanOutAmplification(benchmark::State& state) {
  // Each input record emits `fan` intermediate pairs — the replication
  // pattern of All-Replicate.
  const int fan = static_cast<int>(state.range(0));
  std::vector<int64_t> input(20'000);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<int64_t>(i);
  }
  for (auto _ : state) {
    IntJob job("fanout", 64);
    job.set_partition([](const int32_t& k) { return k & 63; });
    job.set_map([fan](const int64_t& v, IntJob::Emitter& emit) {
      for (int f = 0; f < fan; ++f) {
        emit.Emit(static_cast<int32_t>((v + f) % 64), v);
      }
    });
    job.set_reduce([](const int32_t&, std::span<const int64_t> vals,
                      IntJob::OutEmitter& out) {
      out.Emit(static_cast<int64_t>(vals.size()));
    });
    std::vector<int64_t> output;
    const JobStats stats = job.Run(std::span<const int64_t>(input), &output);
    benchmark::DoNotOptimize(stats.intermediate_records);
  }
  state.SetItemsProcessed(state.iterations() * 20'000 * fan);
}
BENCHMARK(BM_FanOutAmplification)->Arg(1)->Arg(4)->Arg(20);

void BM_ShuffleHeavyFanout(benchmark::State& state) {
  // Shuffle-dominated workload: a cheap map fans every record out to 16
  // reducers and the reduce is a trivial count, so routing the ~1.6M
  // intermediate pairs is nearly the entire job. Arg = pool threads
  // (0 = serial engine path); the mapper-partitioned shuffle both removes
  // the serial routing loop and lets the per-reducer merges run on the
  // pool, so larger Args should track the machine's core count.
  const int threads = static_cast<int>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);

  std::vector<int64_t> input(100'000);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<int64_t>(i);
  }
  for (auto _ : state) {
    IntJob job("shuffle_heavy", 64);
    job.set_partition([](const int32_t& k) { return k & 63; });
    job.set_map([](const int64_t& v, IntJob::Emitter& emit) {
      for (int f = 0; f < 16; ++f) {
        emit.Emit(static_cast<int32_t>((v + f * 4) & 63), v);
      }
    });
    job.set_reduce([](const int32_t&, std::span<const int64_t> vals,
                      IntJob::OutEmitter& out) {
      out.Emit(static_cast<int64_t>(vals.size()));
    });
    std::vector<int64_t> output;
    const JobStats stats = job.Run(std::span<const int64_t>(input), &output,
                                   ExecutionContext(pool.get()));
    benchmark::DoNotOptimize(stats.intermediate_records);
  }
  state.SetItemsProcessed(state.iterations() * 100'000 * 16);
}
BENCHMARK(BM_ShuffleHeavyFanout)->Arg(0)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_EngineTracingOverhead(benchmark::State& state) {
  // Cost of the tracing hooks on the shuffle-heavy workload. Arg selects
  // the tracing mode: 0 = no tracer attached (the pre-tracing engine
  // path), 1 = disabled Tracer attached (one predicted branch per span),
  // 2 = enabled Tracer (records every phase/task span). Modes 0 and 1
  // must be within noise of each other — tracing must be free when off.
  const int mode = static_cast<int>(state.range(0));

  std::vector<int64_t> input(100'000);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<int64_t>(i);
  }
  for (auto _ : state) {
    // The enabled tracer lives inside the iteration so its buffers do not
    // grow across iterations; construction is a few microseconds against
    // a multi-millisecond job.
    std::unique_ptr<Tracer> tracer;
    if (mode == 1) tracer = std::make_unique<Tracer>(/*enabled=*/false);
    if (mode == 2) tracer = std::make_unique<Tracer>();
    ExecutionContext ctx(nullptr, tracer.get());

    IntJob job("tracing_overhead", 64);
    job.set_partition([](const int32_t& k) { return k & 63; });
    job.set_map([](const int64_t& v, IntJob::Emitter& emit) {
      for (int f = 0; f < 16; ++f) {
        emit.Emit(static_cast<int32_t>((v + f * 4) & 63), v);
      }
    });
    job.set_reduce([](const int32_t&, std::span<const int64_t> vals,
                      IntJob::OutEmitter& out) {
      out.Emit(static_cast<int64_t>(vals.size()));
    });
    std::vector<int64_t> output;
    const JobStats stats =
        job.Run(std::span<const int64_t>(input), &output, ctx);
    benchmark::DoNotOptimize(stats.intermediate_records);
  }
  state.SetItemsProcessed(state.iterations() * 100'000 * 16);
}
BENCHMARK(BM_EngineTracingOverhead)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_ReduceGroupBy(benchmark::State& state) {
  // Group-by throughput on spatial-join-sized values (RelRect is ~40
  // bytes, CascadeRecord bigger still): each map chunk key-sorts its
  // buckets with a u32 index permutation, and each reducer k-way merges
  // its sorted buckets straight into key groups handed to reduce_ as
  // spans. The sort runs at map commit and the merge inside the reduce
  // task, so manual time = the job's wall_seconds. Arg = distinct keys.
  struct FatValue {
    int64_t id;
    double payload[6];
  };
  using GroupJob = MapReduceJob<int64_t, int32_t, FatValue, int64_t>;
  const int64_t keys = state.range(0);
  std::vector<int64_t> input(200'000);
  Rng rng(5);
  for (auto& v : input) v = rng.UniformInt(0, keys - 1);
  for (auto _ : state) {
    GroupJob job("reduce_group_by", 16);
    job.set_map([](const int64_t& v, GroupJob::Emitter& emit) {
      FatValue f;
      f.id = v;
      for (double& p : f.payload) p = static_cast<double>(v) * 0.5;
      emit.Emit(static_cast<int32_t>(v), f);
    });
    job.set_reduce([](const int32_t&, std::span<const FatValue> vals,
                      GroupJob::OutEmitter& out) {
      int64_t sum = 0;
      for (const FatValue& f : vals) sum += f.id;
      out.Emit(sum);
    });
    std::vector<int64_t> output;
    const JobStats stats = job.Run(std::span<const int64_t>(input), &output);
    benchmark::DoNotOptimize(output.size());
    state.SetIterationTime(stats.wall_seconds);
  }
  state.SetItemsProcessed(state.iterations() * 200'000);
}
BENCHMARK(BM_ReduceGroupBy)->Arg(64)->Arg(4096)->Arg(100'000)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_ReduceGroupBySingleKey(benchmark::State& state) {
  // The spatial algorithms' actual reduce shape: identity partitioner,
  // one key (cell id) per reducer. Every bucket is already key-sorted, so
  // the map-side sort is one scan per bucket, and the merge drains each
  // bucket with one loser-tree replay into a single group that the reduce
  // function reads as one span. Manual time = the job's wall_seconds.
  struct FatValue {
    int64_t id;
    double payload[6];
  };
  using GroupJob = MapReduceJob<int64_t, int32_t, FatValue, int64_t>;
  std::vector<int64_t> input(200'000);
  Rng rng(6);
  for (auto& v : input) v = rng.UniformInt(0, 15);
  for (auto _ : state) {
    GroupJob job("reduce_group_by_single_key", 16);
    job.set_partition([](const int32_t& k) { return k; });
    job.set_map([](const int64_t& v, GroupJob::Emitter& emit) {
      FatValue f;
      f.id = v;
      for (double& p : f.payload) p = static_cast<double>(v) * 0.5;
      emit.Emit(static_cast<int32_t>(v), f);
    });
    job.set_reduce([](const int32_t&, std::span<const FatValue> vals,
                      GroupJob::OutEmitter& out) {
      int64_t sum = 0;
      for (const FatValue& f : vals) sum += f.id;
      out.Emit(sum);
    });
    std::vector<int64_t> output;
    const JobStats stats = job.Run(std::span<const int64_t>(input), &output);
    benchmark::DoNotOptimize(output.size());
    state.SetIterationTime(stats.wall_seconds);
  }
  state.SetItemsProcessed(state.iterations() * 200'000);
}
BENCHMARK(BM_ReduceGroupBySingleKey)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_EngineFaultRecovery(benchmark::State& state) {
  // Retry amplification of the fault-injection layer on the shuffle-heavy
  // workload. Arg encodes the fault regime:
  //   0 = no plan attached (the pre-fault engine path),
  //   1 = zero-probability plan (empty; must be within noise of 0),
  //   2 = light faults (~6% of attempts),
  //   3 = heavy faults (~30% of attempts).
  // Backoff runs on a virtual clock so the benchmark measures re-executed
  // work, not sleeps. Counters report the attempt/waste amplification.
  const int regime = static_cast<int>(state.range(0));
  FaultPlan plan;
  switch (regime) {
    case 1: plan = FaultPlan::Seeded(11, 0.0, 0.0, 0.0); break;
    case 2: plan = FaultPlan::Seeded(11, 0.02, 0.02, 0.02); break;
    case 3: plan = FaultPlan::Seeded(11, 0.12, 0.12, 0.06); break;
    default: break;
  }
  RetryPolicy retry;
  retry.sleep = [](double) {};
  ExecutionContext ctx;
  if (regime > 0) ctx.faults = &plan;
  ctx.retry = &retry;

  std::vector<int64_t> input(100'000);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<int64_t>(i);
  }
  int64_t attempts = 0, tasks = 0, wasted = 0;
  for (auto _ : state) {
    IntJob job("fault_recovery", 64);
    job.set_partition([](const int32_t& k) { return k & 63; });
    job.set_map([](const int64_t& v, IntJob::Emitter& emit) {
      for (int f = 0; f < 16; ++f) {
        emit.Emit(static_cast<int32_t>((v + f * 4) & 63), v);
      }
    });
    job.set_reduce([](const int32_t&, std::span<const int64_t> vals,
                      IntJob::OutEmitter& out) {
      out.Emit(static_cast<int64_t>(vals.size()));
    });
    std::vector<int64_t> output;
    const JobStats stats =
        job.Run(std::span<const int64_t>(input), &output, ctx);
    benchmark::DoNotOptimize(stats.intermediate_records);
    attempts += stats.map_faults.attempts + stats.reduce_faults.attempts;
    tasks += stats.map_faults.tasks + stats.reduce_faults.tasks;
    wasted +=
        stats.map_faults.wasted_records + stats.reduce_faults.wasted_records;
  }
  state.SetItemsProcessed(state.iterations() * 100'000 * 16);
  state.counters["attempts_per_task"] =
      tasks > 0 ? static_cast<double>(attempts) / static_cast<double>(tasks)
                : 0.0;
  state.counters["wasted_records_per_iter"] =
      state.iterations() > 0
          ? static_cast<double>(wasted) / static_cast<double>(state.iterations())
          : 0.0;
}
BENCHMARK(BM_EngineFaultRecovery)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

void BM_GroupingManyKeys(benchmark::State& state) {
  // Many distinct keys per reducer stress the sort-and-group phase.
  const int64_t keys = state.range(0);
  std::vector<int64_t> input(200'000);
  Rng rng(3);
  for (auto& v : input) v = rng.UniformInt(0, keys - 1);
  for (auto _ : state) {
    IntJob job("grouping", 16);
    job.set_map([](const int64_t& v, IntJob::Emitter& emit) {
      emit.Emit(static_cast<int32_t>(v), v);
    });
    job.set_reduce([](const int32_t&, std::span<const int64_t> vals,
                      IntJob::OutEmitter& out) {
      out.Emit(static_cast<int64_t>(vals.size()));
    });
    std::vector<int64_t> output;
    job.Run(std::span<const int64_t>(input), &output);
    benchmark::DoNotOptimize(output.size());
  }
  state.SetItemsProcessed(state.iterations() * 200'000);
}
BENCHMARK(BM_GroupingManyKeys)->Arg(16)->Arg(4096)->Arg(100'000);

}  // namespace
}  // namespace mwsj

BENCHMARK_MAIN();
