#ifndef MWSJ_MAPREDUCE_ENGINE_H_
#define MWSJ_MAPREDUCE_ENGINE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/effects.h"
#include "common/execution_context.h"
#include "common/mutex.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "mapreduce/counters.h"
#include "mapreduce/spill.h"
#include "simd/simd.h"
#include "mapreduce/fault.h"

namespace mwsj {

namespace engine_internal {

/// Best-effort rendering of a shuffle key for error messages; keys only
/// need ordering and equality, so non-printable types degrade gracefully.
template <typename K>
std::string DescribeKey(const K& key) {
  if constexpr (std::is_arithmetic_v<K>) {
    return std::to_string(key);
  } else if constexpr (std::is_convertible_v<const K&, std::string>) {
    return std::string(key);
  } else {
    return "<unprintable key>";
  }
}

}  // namespace engine_internal

/// In-process map-reduce engine.
///
/// This substrate plays the role Hadoop 0.20.2 plays in the paper (§2,
/// §7.8.1): user code supplies a map function that turns input records into
/// intermediate key-value pairs, the engine shuffles pairs to reducers by a
/// partition function, and a reduce function processes each key group. The
/// engine is deliberately faithful to the paper's cost structure rather than
/// to Hadoop's implementation details:
///
///   * every intermediate pair is counted (and sized) — that is the
///     communication cost the algorithms are designed to minimize;
///   * reducers execute as independent tasks with per-task timing, so
///     reducer skew is observable;
///   * execution is deterministic: each reducer sees its pairs as a stable
///     key sort of the chunk-major emit order, whatever the thread
///     scheduling, and reduces its key groups in key order;
///   * tasks can fail and be re-executed: an `ExecutionContext::faults`
///     plan (mapreduce/fault.h) injects deterministic per-attempt
///     crash/flaky/straggler faults, and the engine retries with bounded
///     exponential backoff while discarding everything a failed attempt
///     produced — emits, user counters, spill runs — so job output stays
///     byte-identical to a fault-free run (Hadoop's exactly-once task
///     re-execution, with the wasted work accounted in JobStats);
///   * the shuffle has Hadoop's single path: every map chunk partitions
///     and key-sorts its output; a chunk over its share of
///     `ExecutionContext::options.shuffle_memory_budget` (or the
///     MWSJ_SHUFFLE_BUDGET env override) flushes its buckets as sorted,
///     columnar-compressed spill runs; and each reduce task k-way merges
///     its bucket column straight into key groups. An unlimited budget
///     never spills; output bytes are the same under every budget
///     (DESIGN.md §2.13, JobStats::spill).
///
/// Keys must be totally ordered (operator<) and equality-comparable. Keys,
/// values and outputs must be copy-constructible — discarded attempts
/// re-read the shuffle and raw spill runs copy buckets — and keys and values
/// default-constructible (the mapper-side scatter builds reducer-major
/// shards in place). The partition and value-size functions run inside
/// mapper tasks and must be thread-safe (in practice: pure functions of the
/// key/value).
template <typename In, typename K, typename V, typename Out>
class MapReduceJob {
  static_assert(std::is_copy_constructible_v<K> &&
                    std::is_copy_constructible_v<V> &&
                    std::is_copy_constructible_v<Out>,
                "MapReduceJob needs copyable keys, values and outputs");

  /// One map attempt's output: its pairs in emit order, each pair's
  /// reducer, byte tallies, and counter deltas.
  struct MapOutput {
    std::vector<std::pair<K, V>> pairs;
    std::vector<uint32_t> route;
    std::vector<int64_t> bucket_bytes;  // Intermediate bytes per reducer.
    int64_t bytes = 0;
    std::map<std::string, int64_t> counters;
  };

 public:
  using PartitionFn = std::function<int(const K&)>;
  using SizeFn = std::function<int64_t(const V&)>;

  /// Collects intermediate pairs from one map invocation, computing each
  /// pair's reducer and size at emit time. Each map chunk owns one emitter
  /// and its output, so mappers never contend on shared state; the tallies
  /// are summed after the map barrier.
  ///
  /// The emitter is scoped to one task *attempt*: counter increments land
  /// in an attempt-local map the engine merges into JobStats only when the
  /// attempt commits, so a crashed or discarded attempt's counts vanish
  /// with its emits (exactly-once under fault injection).
  class Emitter {
   public:
    Emitter(MapOutput* out, const PartitionFn* partition,
            const SizeFn* value_size, const std::string* job_name,
            int64_t job_id)
        : out_(out), partition_(partition), value_size_(value_size),
          job_name_(job_name), job_id_(job_id) {}
    /// MWSJ_DETERMINISTIC: the emit stream is the byte-identity contract —
    /// everything transitively feeding it must be order-deterministic.
    MWSJ_DETERMINISTIC void Emit(K key, V value) {
      const int r = (*partition_)(key);
      const int num_reducers = static_cast<int>(out_->bucket_bytes.size());
      // An out-of-range partition result would corrupt the counting sort
      // out of bounds; fail fast with the job and key instead. With many
      // scheduled jobs sharing one pool, the same job *name* can be in
      // flight several times over — the id suffix names the offender
      // unambiguously.
      if (r < 0 || r >= num_reducers) [[unlikely]] {
        const std::string job_suffix =
            job_id_ >= 0 ? " (job #" + std::to_string(job_id_) + ")" : "";
        std::fprintf(stderr,
                     "MapReduceJob '%s': partition function returned %d for "
                     "key %s, outside the valid reducer range [0, %d)%s\n",
                     job_name_->c_str(), r,
                     engine_internal::DescribeKey(key).c_str(), num_reducers,
                     job_suffix.c_str());
        std::abort();
      }
      const int64_t bytes = (*value_size_)(value);
      out_->bytes += bytes;
      out_->bucket_bytes[r] += bytes;
      // mwsj-check: allow(alloc-free-reach): emit buffers are pre-reserved
      // per attempt and budget-tracked; amortized growth here is the
      // engine's charge, not the allocation-free kernel caller's.
      out_->route.push_back(static_cast<uint32_t>(r));
      // mwsj-check: allow(alloc-free-reach): same pre-reserved emit buffer.
      out_->pairs.emplace_back(std::move(key), std::move(value));
    }

    /// Adds to a user counter, attempt-locally: the delta reaches
    /// JobStats.user_counters only if this attempt commits.
    void IncrementCounter(const std::string& name, int64_t delta) {
      out_->counters[name] += delta;
    }

   private:
    MapOutput* out_;
    const PartitionFn* partition_;
    const SizeFn* value_size_;
    const std::string* job_name_;
    int64_t job_id_ = -1;
  };

  /// Collects output records from one reduce invocation. Attempt-scoped
  /// exactly like Emitter: counter increments are merged only on commit.
  class OutEmitter {
   public:
    OutEmitter(std::vector<Out>* sink, std::map<std::string, int64_t>* counters)
        : sink_(sink), counters_(counters) {}
    /// MWSJ_DETERMINISTIC: reducer output order is part of the
    /// byte-identity contract (see Emitter::Emit).
    MWSJ_DETERMINISTIC void Emit(Out record) {
      // mwsj-check: allow(alloc-free-reach): the output sink is the
      // engine's budgeted buffer; growth is the job's charge, not the
      // reduce kernel's.
      sink_->push_back(std::move(record));
    }

    /// Adds to a user counter, attempt-locally (see Emitter).
    void IncrementCounter(const std::string& name, int64_t delta) {
      (*counters_)[name] += delta;
    }

   private:
    std::vector<Out>* sink_;
    std::map<std::string, int64_t>* counters_;
  };

  using MapFn = std::function<void(const In&, Emitter&)>;
  /// One call per key group, in key order; values arrive in arrival
  /// (chunk-major emit) order. The span points into the reduce task's
  /// key-group buffer — it is valid only for the duration of the call, and
  /// the reduce function must not retain it.
  using ReduceFn = std::function<void(const K&, std::span<const V>, OutEmitter&)>;

  MapReduceJob(std::string name, int num_reducers)
      : name_(std::move(name)), num_reducers_(num_reducers) {}

  MapReduceJob& set_map(MapFn fn) {
    map_ = std::move(fn);
    return *this;
  }
  MapReduceJob& set_reduce(ReduceFn fn) {
    reduce_ = std::move(fn);
    return *this;
  }
  /// Defaults to `std::hash<K> % num_reducers`. The spatial algorithms use
  /// the identity partitioner (key = cell id = reducer id).
  MapReduceJob& set_partition(PartitionFn fn) {
    partition_ = std::move(fn);
    return *this;
  }
  /// Byte size of one intermediate value, for communication accounting.
  /// Defaults to sizeof(V) + sizeof(K).
  MapReduceJob& set_value_size(SizeFn fn) {
    value_size_ = std::move(fn);
    return *this;
  }
  /// Executes the job over `input`, appending reducer output to `*output`.
  /// `ctx.pool` may be null for synchronous single-threaded execution;
  /// `ctx.tracer` (optional) records the job span, the map/shuffle/reduce
  /// phase spans, and one task span per map chunk / spill flush / reduce
  /// task. When `ctx.job_id >= 0` (scheduler-submitted runs) every
  /// span carries a "job" arg and JobStats records the id, so concurrent
  /// jobs with the same job name stay attributable.
  ///
  /// MWSJ_BLOCKING_OK: the driver is the one sanctioned blocking scope —
  /// it forks/join task batches and simulates straggler delays.
  /// blocking-reach traversals stop here instead of flagging the
  /// orchestration beneath it.
  MWSJ_BLOCKING_OK JobStats Run(std::span<const In> input,
                                std::vector<Out>* output,
                                const ExecutionContext& ctx =
                                    ExecutionContext());

 private:
  /// Folds a committed attempt's counter deltas into the job counters.
  void MergeCounters(const std::map<std::string, int64_t>& deltas)
      EXCLUDES(counter_mu_) {
    if (deltas.empty()) return;
    MutexLock lock(&counter_mu_);
    for (const auto& [name, delta] : deltas) user_counters_[name] += delta;
  }

  std::string name_;
  int num_reducers_;
  MapFn map_;
  ReduceFn reduce_;
  PartitionFn partition_;
  SizeFn value_size_;

  Mutex counter_mu_;
  std::map<std::string, int64_t> user_counters_ GUARDED_BY(counter_mu_);
};

template <typename In, typename K, typename V, typename Out>
JobStats MapReduceJob<In, K, V, Out>::Run(std::span<const In> input,
                                          std::vector<Out>* output,
                                          const ExecutionContext& ctx) {
  ThreadPool* const pool = ctx.pool;
  Tracer* const tracer = ctx.tracer;
  const int64_t job_id = ctx.job_id;
  // Tags a span with the scheduler-assigned job id, so interleaved task
  // spans from concurrent jobs on one pool stay attributable. Standalone
  // runs (job_id < 0) keep their trace output byte-identical to before.
  auto tag_job = [job_id](TraceSpan& span) {
    if (job_id >= 0) span.AddArg("job", job_id);
  };
  TraceSpan job_span(tracer, name_, "job");
  tag_job(job_span);
  Stopwatch job_watch;
  JobStats stats;
  stats.job_name = name_;
  stats.job_id = job_id;
  stats.num_reducers = num_reducers_;
  stats.map_input_records = static_cast<int64_t>(input.size());
  stats.map_input_bytes =
      stats.map_input_records * static_cast<int64_t>(sizeof(In));

  // A reused job object starts each run with fresh user counters.
  {
    MutexLock lock(&counter_mu_);
    user_counters_.clear();
  }

  PartitionFn partition = partition_;
  if (!partition) {
    partition = [this](const K& k) {
      return static_cast<int>(std::hash<K>{}(k) % num_reducers_);
    };
  }
  SizeFn value_size = value_size_;
  if (!value_size) {
    value_size = [](const V&) {
      return static_cast<int64_t>(sizeof(V) + sizeof(K));
    };
  }

  // ---- Fault-injection setup. An absent or empty plan collapses to a
  // null pointer so the fault-free hot path costs one branch per task
  // attempt and never touches the retry machinery.
  const FaultPlan* faults = ctx.faults;
  if (faults != nullptr && faults->empty()) faults = nullptr;
  static const RetryPolicy kDefaultRetry;
  const RetryPolicy& retry = ctx.retry != nullptr ? *ctx.retry : kDefaultRetry;

  // ---- The attempt runner shared by the map, spill-flush and reduce
  // phases. Each attempt of `task` asks the fault plan what happens to it.
  // A crash dies at once; a flaky attempt runs `discard(false)` (half of
  // its work) and dies; both retry after a backoff until the retry policy's
  // attempt budget is spent. A straggler commits, but first its
  // speculative duplicate runs `discard(true)`: all of the work, all of it
  // thrown away. Discarded attempts must leave the task's input intact;
  // `commit(attempt)` then runs exactly once and may consume it. Every
  // discarded attempt is traced as a failed `span_name` span (speculative
  // ones only if `trace_speculative`) and charged to `*fs`.
  auto run_attempts = [&](FaultPhase phase, size_t task, const char* span_name,
                          const char* task_arg, bool trace_speculative,
                          PhaseFaultStats* fs, auto&& discard, auto&& commit) {
    for (int attempt = 0;; ++attempt) {
      const FaultKind fault =
          faults == nullptr
              ? FaultKind::kNone
              : faults->At(phase, static_cast<int64_t>(task), attempt);
      ++fs->attempts;
      const bool failed =
          fault == FaultKind::kCrash || fault == FaultKind::kFlakyIo;
      if (failed || fault == FaultKind::kSlow) {
        TraceSpan span(failed || trace_speculative ? tracer : nullptr,
                       span_name, "task");
        tag_job(span);
        span.AddArg(task_arg, static_cast<int64_t>(task));
        span.AddArg("attempt",
                    static_cast<int64_t>(failed ? attempt : attempt + 1));
        span.AddArg("failed", int64_t{1});
        if (!failed) span.AddArg("speculative", int64_t{1});
        Stopwatch attempt_watch;
        if (fault != FaultKind::kCrash) discard(/*full=*/!failed);
        fs->wasted_seconds += attempt_watch.ElapsedSeconds();
      }
      if (!failed) {
        if (fault == FaultKind::kSlow) {
          ++fs->attempts;
          ++fs->speculative;
        }
        commit(attempt);
        return;
      }
      // A task exhausting its retry budget fails the whole job, matching
      // Hadoop's mapred.*.max.attempts behavior; the engine has no
      // partial-output mode, so fail fast like the partition-range check.
      if (attempt + 1 >= retry.max_attempts) {
        const std::string job_suffix =
            job_id >= 0 ? " (job #" + std::to_string(job_id) + ")" : "";
        std::fprintf(stderr,
                     "MapReduceJob '%s': %s task %zu failed %d attempts, "
                     "aborting job%s\n",
                     name_.c_str(), FaultPhaseName(phase), task,
                     retry.max_attempts, job_suffix.c_str());
        std::abort();
      }
      ++fs->retries;
      // Charge (and serve) the backoff delay before the retry. Tests
      // inject a virtual clock via RetryPolicy::sleep.
      const double backoff = BackoffSeconds(retry, attempt);
      fs->backoff_seconds += backoff;
      if (retry.sleep) {
        retry.sleep(backoff);
      } else if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      }
    }
  };

  // ---- The shuffle (DESIGN.md §2.13) has one path, Hadoop's: every
  // committed map chunk partitions its pairs by reducer and key-sorts each
  // bucket; a chunk whose intermediate bytes exceed its share of the budget
  // also flushes its buckets as sorted runs; each reduce task k-way merges
  // its bucket column. An unlimited budget (0) is a budget no chunk ever
  // exceeds. A spilled chunk keeps its runs itself, one slot per reducer,
  // and SpillStats reports the spill traffic.
  const int64_t shuffle_budget = spill::ResolveShuffleBudget(ctx.options);
  stats.spill.budget_bytes = shuffle_budget;

  // ---- Map phase. Input is split into fixed chunks; each chunk partitions
  // its pairs at emit time and finishes its task with a stable local
  // counting sort into a reducer-major shard (the chunk's row of the
  // num_chunks × num_reducers bucket matrix, stored compactly as one
  // vector plus offsets — Hadoop's mapper-side partition/sort/spill). The
  // overall pair order (chunk-major, emit order within a chunk) is
  // independent of thread scheduling.
  const size_t num_reducers = static_cast<size_t>(num_reducers_);
  const size_t chunk_size =
      std::max<size_t>(1, (input.size() + 63) / 64);
  const size_t num_chunks =
      input.empty() ? 0 : (input.size() + chunk_size - 1) / chunk_size;
  // One spilled bucket: its columnar frame, or its raw sorted pairs when
  // (K, V) has no SpillColumns or encoding would make the run larger.
  struct SpillRun {
    std::vector<uint8_t> encoded;
    std::vector<std::pair<K, V>> raw;
  };
  struct MapShard {
    std::vector<std::pair<K, V>> pairs;  // Reducer-major, key-sorted buckets.
    std::vector<size_t> offsets;         // Bucket r = [offsets[r], offsets[r+1]).
    std::vector<int64_t> bucket_bytes;   // Per-reducer intermediate bytes.
    int64_t bytes = 0;
    double seconds = 0;
    // Empty unless the chunk spilled; then one run slot per reducer holds
    // the buckets and `pairs` is freed.
    std::vector<SpillRun> runs;
    PhaseFaultStats faults;  // This task's attempt/retry accounting.
    SpillStats spill;        // This task's spill accounting.
  };
  std::vector<MapShard> shards(num_chunks);
  const int64_t chunk_budget = spill::ChunkBudget(shuffle_budget, num_chunks);

  // Stable key sort of one bucket, preserving emit order within equal keys,
  // so the reduce-side merge sees only sorted sources. A bucket already in
  // key order (every spatial job's: its bucket holds one cell id) costs one
  // scan.
  auto sort_bucket = [](std::pair<K, V>* lo, std::pair<K, V>* hi) {
    if (std::is_sorted(lo, hi, [](const auto& a, const auto& b) {
          return a.first < b.first;
        })) {
      return;
    }
    const size_t m = static_cast<size_t>(hi - lo);
    std::vector<K> keys;
    keys.reserve(m);
    std::vector<uint32_t> idx(m);
    for (size_t i = 0; i < m; ++i) {
      keys.push_back(lo[i].first);
      idx[i] = static_cast<uint32_t>(i);
    }
    simd::StableSortIndexByKey(keys, &idx);
    std::vector<std::pair<K, V>> sorted;
    sorted.reserve(m);
    for (const uint32_t i : idx) sorted.push_back(std::move(lo[i]));
    std::move(sorted.begin(), sorted.end(), lo);
  };
  // After a chunk's committing map attempt: key-sort its buckets and, if
  // the chunk exceeds its budget share, flush them all as sorted runs into
  // the shard's run slots through a fault-injectable flush
  // (FaultPhase::kSpill, task id = chunk index). Flushing reads the
  // buckets without moving them, so a failed flush attempt retries from
  // intact buckets; a discarded attempt builds its runs in slots of its
  // own and drops them.
  auto sort_and_maybe_spill = [&](size_t c) {
    MapShard& shard = shards[c];
    Stopwatch spill_watch;
    for (size_t r = 0; r < num_reducers; ++r) {
      sort_bucket(shard.pairs.data() + shard.offsets[r],
                  shard.pairs.data() + shard.offsets[r + 1]);
    }
    if (shard.bytes > chunk_budget) {
      // Column staging shared by every bucket of every flush attempt below
      // (including flaky-I/O retries and speculative duplicate flushes):
      // grows to the largest bucket once instead of reallocating a
      // bucket-sized vector per EncodeRun call.
      std::vector<uint64_t> encode_scratch;
      // Appends the runs of the first `bucket_limit` reducers to `*runs`
      // (a flaky flush dies midway through its buckets); returns the run
      // count and the bytes the runs store.
      auto build_runs = [&](std::vector<SpillRun>* runs, size_t bucket_limit) {
        runs->resize(num_reducers);
        int64_t count = 0;
        int64_t stored = 0;
        for (size_t r = 0; r < bucket_limit; ++r) {
          const auto lo = shard.pairs.begin() +
                          static_cast<ptrdiff_t>(shard.offsets[r]);
          const auto hi = shard.pairs.begin() +
                          static_cast<ptrdiff_t>(shard.offsets[r + 1]);
          if (hi == lo) continue;
          ++count;
          SpillRun& run = (*runs)[r];
          if constexpr (spill::kEncodable<K, V>) {
            spill::EncodeRun(&*lo, static_cast<size_t>(hi - lo),
                             &encode_scratch, &run.encoded);
            const int64_t encoded = static_cast<int64_t>(run.encoded.size());
            // A tiny run can encode *larger* than its raw bytes (frame and
            // block headers dominate a handful of rows); store whichever
            // representation is smaller.
            if (encoded <= shard.bucket_bytes[r]) {
              stored += encoded;
              continue;
            }
            std::vector<uint8_t>().swap(run.encoded);
          }
          run.raw.insert(run.raw.end(), lo, hi);
          stored += shard.bucket_bytes[r];
        }
        return std::pair<int64_t, int64_t>(count, stored);
      };
      // A flush attempt is not a map attempt: of its tally only the
      // retries (as SpillStats::flush_retries) and the backoff are kept.
      PhaseFaultStats flush;
      run_attempts(
          FaultPhase::kSpill, c, "spill_flush", "chunk",
          /*trace_speculative=*/false, &flush,
          [&](bool full) {
            std::vector<SpillRun> dropped;
            shard.spill.wasted_flush_bytes +=
                build_runs(&dropped, full ? num_reducers : num_reducers / 2)
                    .second;
          },
          [&](int) {
            TraceSpan flush_span(tracer, "spill_flush", "task");
            tag_job(flush_span);
            flush_span.AddArg("chunk", static_cast<int64_t>(c));
            const auto [runs, stored] = build_runs(&shard.runs, num_reducers);
            shard.spill.spilled_chunks = 1;
            shard.spill.spilled_runs = runs;
            shard.spill.spilled_raw_bytes = shard.bytes;
            shard.spill.spilled_stored_bytes = stored;
            flush_span.AddArg("runs", runs);
            flush_span.AddArg("stored_bytes", stored);
          });
      shard.spill.flush_retries = flush.retries;
      shard.faults.backoff_seconds += flush.backoff_seconds;
      std::vector<std::pair<K, V>>().swap(shard.pairs);  // Runs hold it now.
    }
    shard.seconds += spill_watch.ElapsedSeconds();
  };

  Stopwatch phase_watch;
  auto run_chunk = [&](size_t c) {
    MapShard& shard = shards[c];
    shard.faults.tasks = 1;
    const size_t lo = c * chunk_size;
    const size_t hi = std::min(input.size(), lo + chunk_size);
    // One attempt over the first `limit` records of the chunk. Its output
    // is its own, so discarding the attempt is dropping it.
    auto map_attempt = [&](size_t limit) {
      MapOutput o;
      // Most maps emit ≥1 pair per record; pre-sizing halves growth moves.
      o.pairs.reserve(hi - lo);
      o.route.reserve(hi - lo);
      o.bucket_bytes.assign(num_reducers, 0);
      Emitter emitter(&o, &partition, &value_size, &name_, job_id);
      for (size_t i = lo; i < lo + limit; ++i) map_(input[i], emitter);
      return o;
    };
    run_attempts(
        FaultPhase::kMap, c, "map_attempt", "chunk",
        /*trace_speculative=*/true, &shard.faults,
        [&](bool full) {
          const MapOutput o = map_attempt(full ? hi - lo : (hi - lo) / 2);
          shard.faults.wasted_bytes += o.bytes;
          shard.faults.wasted_records += static_cast<int64_t>(o.pairs.size());
        },
        [&](int attempt) {
          TraceSpan chunk_span(tracer, "map_chunk", "task");
          tag_job(chunk_span);
          Stopwatch chunk_watch;
          MapOutput o = map_attempt(hi - lo);
          shard.bytes = o.bytes;
          shard.bucket_bytes = std::move(o.bucket_bytes);
          chunk_span.AddArg("chunk", static_cast<int64_t>(c));
          chunk_span.AddArg("records", static_cast<int64_t>(o.pairs.size()));
          if (faults != nullptr) {
            chunk_span.AddArg("attempt", static_cast<int64_t>(attempt));
          }
          // Stable counting sort by reducer, preserving emit order per
          // bucket.
          shard.offsets.assign(num_reducers + 1, 0);
          for (const uint32_t r : o.route) ++shard.offsets[r + 1];
          for (size_t r = 0; r < num_reducers; ++r) {
            shard.offsets[r + 1] += shard.offsets[r];
          }
          std::vector<size_t> cursor(shard.offsets.begin(),
                                     shard.offsets.end() - 1);
          shard.pairs.resize(o.pairs.size());
          for (size_t i = 0; i < o.pairs.size(); ++i) {
            shard.pairs[cursor[o.route[i]]++] = std::move(o.pairs[i]);
          }
          shard.seconds = chunk_watch.ElapsedSeconds();
          MergeCounters(o.counters);
        });
    sort_and_maybe_spill(c);
  };
  {
    TraceSpan map_phase(tracer, "map", "phase");
    tag_job(map_phase);
    map_phase.AddArg("chunks", static_cast<int64_t>(num_chunks));
    if (pool != nullptr && num_chunks > 1) {
      ParallelFor(pool, num_chunks, run_chunk);
    } else {
      for (size_t c = 0; c < num_chunks; ++c) run_chunk(c);
    }
  }
  stats.per_chunk_map_seconds.resize(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    stats.intermediate_records +=
        static_cast<int64_t>(shards[c].offsets.back());
    stats.intermediate_bytes += shards[c].bytes;
    stats.per_chunk_map_seconds[c] = shards[c].seconds;
    stats.map_faults.Add(shards[c].faults);
    stats.spill.Add(shards[c].spill);
  }
  stats.map_seconds = phase_watch.ElapsedSeconds();

  // ---- Shuffle barrier. The buckets are partitioned, sorted and spilled
  // already, and each reduce task streams its own merge (below), so this
  // phase only derives the per-reducer record counts and the shuffle's
  // memory figures: the intermediate bytes still resident (spilled chunks'
  // bytes live on disk as runs, counted by spilled_stored_bytes instead),
  // the largest reducer inbox, and the widest merge.
  phase_watch.Reset();
  {
    TraceSpan shuffle_phase(tracer, "shuffle", "phase");
    tag_job(shuffle_phase);
    stats.per_reducer_records.assign(num_reducers, 0);
    for (size_t r = 0; r < num_reducers; ++r) {
      int64_t inbox_bytes = 0;
      int64_t merge_width = 0;
      for (const MapShard& shard : shards) {
        const size_t n = shard.offsets[r + 1] - shard.offsets[r];
        stats.per_reducer_records[r] += static_cast<int64_t>(n);
        inbox_bytes += shard.bucket_bytes[r];
        merge_width += n > 0 ? 1 : 0;
      }
      stats.spill.peak_inbox_bytes =
          std::max(stats.spill.peak_inbox_bytes, inbox_bytes);
      stats.spill.merge_runs_max =
          std::max(stats.spill.merge_runs_max, merge_width);
    }
    for (const MapShard& shard : shards) {
      if (shard.runs.empty()) stats.spill.peak_shuffle_bytes += shard.bytes;
    }
  }
  stats.shuffle_seconds = phase_watch.ElapsedSeconds();

  // ---- Reduce phase. Each reduce task k-way merges its bucket column —
  // in-memory bucket slices and spill runs alike — with key ties broken by
  // chunk index. That is exactly a stable sort by key of the chunk-major
  // arrival order, whichever chunks spilled, so output is byte-identical
  // under every budget. Key groups come straight out of the merge, in key
  // order, into one reused value buffer.
  phase_watch.Reset();
  std::vector<std::vector<Out>> reducer_out(num_reducers);
  stats.per_reducer_seconds.assign(num_reducers, 0.0);
  std::vector<PhaseFaultStats> reduce_task_faults(num_reducers);

  // One sorted source of a reducer's merge: a pair slice [pos, end) — an
  // in-memory bucket or a raw spill run — or a columnar-encoded spill run.
  struct Source {
    std::pair<K, V>* pos = nullptr;
    std::pair<K, V>* end = nullptr;
    std::unique_ptr<spill::EncodedRunCursor<K, V>> enc;  // Encoded run.
    K enc_key{};  // Decoded head key of `enc`.

    bool empty() const { return enc == nullptr ? pos == end : enc->empty(); }
    const K& key() const { return enc == nullptr ? pos->first : enc_key; }
    // Pops the head value: moved out of a slice when `move` (the committing
    // pass; nothing reads the slice after it), else copied.
    V Take(bool move) {
      if (enc == nullptr) {
        std::pair<K, V>& p = *pos++;
        if (move) return std::move(p.second);
        return p.second;
      }
      K k{};
      V v{};
      if constexpr (spill::kEncodable<K, V>) {
        enc->Pop(&k, &v);
        if (!enc->empty()) enc_key = enc->key();
      }
      return v;
    }
  };
  // Opens reducer r's bucket column afresh; each attempt merges its own.
  auto open_sources = [&](size_t r) {
    std::vector<Source> sources;
    sources.reserve(num_chunks);
    for (MapShard& shard : shards) {
      const size_t lo = shard.offsets[r];
      const size_t hi = shard.offsets[r + 1];
      if (hi == lo) continue;
      Source& s = sources.emplace_back();
      if (shard.runs.empty()) {
        s.pos = shard.pairs.data() + lo;
        s.end = shard.pairs.data() + hi;
        continue;
      }
      SpillRun& run = shard.runs[r];
      if constexpr (spill::kEncodable<K, V>) {
        if (!run.encoded.empty()) {
          s.enc = std::make_unique<spill::EncodedRunCursor<K, V>>();
          // Engine-encoded frames always decode.
          (void)s.enc->Init(run.encoded.data(), run.encoded.size());
          if (!s.enc->empty()) s.enc_key = s.enc->key();
          continue;
        }
      }
      s.pos = run.raw.data();
      s.end = run.raw.data() + run.raw.size();
    }
    return sources;
  };

  auto run_reducer = [&](size_t r) {
    PhaseFaultStats& rf = reduce_task_faults[r];
    rf.tasks = 1;
    const size_t total = static_cast<size_t>(stats.per_reducer_records[r]);
    // The current key group, reused across groups and attempts. Reserving
    // the reducer's record count spares the regrowth copies of a
    // one-group reducer (every spatial job's); pages past the largest
    // group are never touched.
    std::vector<V> values;
    values.reserve(total);
    // One pass over the reducer's key groups, each handed to reduce_ as a
    // span over `values` that is valid only during the call. Groups that
    // start at or past record `limit` are skipped (a flaky attempt dies
    // midway). Only the committing pass (`commit`) moves values out of the
    // in-memory buckets; discarded passes copy, leaving them intact.
    auto reduce_pass = [&](size_t limit, bool commit, OutEmitter& out) {
      std::vector<Source> sources = open_sources(r);
      auto beats = [&sources](size_t a, size_t b) {
        const Source& sa = sources[a];
        const Source& sb = sources[b];
        if (sa.empty()) return false;
        if (sb.empty()) return true;
        if (sa.key() < sb.key()) return true;
        if (sb.key() < sa.key()) return false;
        return a < b;  // Chunk-order tie-break = merge stability.
      };
      spill::LoserTree<decltype(beats)> tree(sources.size(), beats);
      size_t taken = 0;
      while (taken < limit) {
        const K key = sources[tree.winner()].key();
        values.clear();
        while (taken < total) {
          const size_t w = tree.winner();
          Source& s = sources[w];
          if (key < s.key()) break;
          // Ties go to the lower chunk index, so the winner keeps winning
          // while its head key equals `key`: drain it, then replay once.
          do {
            values.push_back(s.Take(commit));
            ++taken;
          } while (!s.empty() && !(key < s.key()));
          tree.Replay(w);
        }
        reduce_(key, std::span<const V>(values), out);
      }
    };
    run_attempts(
        FaultPhase::kReduce, r, "reduce_attempt", "reducer",
        /*trace_speculative=*/true, &rf,
        [&](bool full) {
          std::vector<Out> scratch;
          std::map<std::string, int64_t> counters;
          OutEmitter out(&scratch, &counters);
          reduce_pass(full ? total : total / 2, /*commit=*/false, out);
          rf.wasted_records += static_cast<int64_t>(scratch.size());
          rf.wasted_bytes += static_cast<int64_t>(scratch.size() * sizeof(Out));
        },
        [&](int attempt) {
          TraceSpan reduce_span(tracer, "reduce_task", "task");
          tag_job(reduce_span);
          reduce_span.AddArg("reducer", static_cast<int64_t>(r));
          reduce_span.AddArg("records", static_cast<int64_t>(total));
          if (faults != nullptr) {
            reduce_span.AddArg("attempt", static_cast<int64_t>(attempt));
          }
          Stopwatch reducer_watch;
          std::map<std::string, int64_t> counters;
          OutEmitter out(&reducer_out[r], &counters);
          reduce_pass(total, /*commit=*/true, out);
          stats.per_reducer_seconds[r] = reducer_watch.ElapsedSeconds();
          MergeCounters(counters);
        });
    // Free this reducer's run slots so out-of-core memory drains as
    // reducers complete. Each reducer touches only its own slots.
    for (MapShard& shard : shards) {
      if (!shard.runs.empty()) shard.runs[r] = SpillRun();
    }
  };
  {
    TraceSpan reduce_phase(tracer, "reduce", "phase");
    tag_job(reduce_phase);
    if (pool != nullptr && num_reducers > 1) {
      ParallelFor(pool, num_reducers, run_reducer);
    } else {
      for (size_t r = 0; r < num_reducers; ++r) run_reducer(r);
    }
  }
  stats.reduce_seconds = phase_watch.ElapsedSeconds();
  std::vector<MapShard>().swap(shards);  // Free the buckets before output.
  for (const PhaseFaultStats& rf : reduce_task_faults) {
    stats.reduce_faults.Add(rf);
  }

  for (auto& out : reducer_out) {
    stats.reduce_output_records += static_cast<int64_t>(out.size());
    output->insert(output->end(), std::make_move_iterator(out.begin()),
                   std::make_move_iterator(out.end()));
  }
  stats.reduce_output_bytes =
      stats.reduce_output_records * static_cast<int64_t>(sizeof(Out));

  {
    MutexLock lock(&counter_mu_);
    stats.user_counters = user_counters_;
  }
  stats.wall_seconds = job_watch.ElapsedSeconds();
  job_span.AddArg("map_input_records", stats.map_input_records);
  job_span.AddArg("intermediate_records", stats.intermediate_records);
  job_span.AddArg("intermediate_bytes", stats.intermediate_bytes);
  job_span.AddArg("reduce_output_records", stats.reduce_output_records);
  if (stats.spill.active()) {
    job_span.AddArg("spilled_runs", stats.spill.spilled_runs);
    job_span.AddArg("spilled_stored_bytes", stats.spill.spilled_stored_bytes);
  }
  if (stats.AnyFaults()) {
    job_span.AddArg("retries",
                    stats.map_faults.retries + stats.reduce_faults.retries);
    job_span.AddArg("speculative", stats.map_faults.speculative +
                                       stats.reduce_faults.speculative);
    job_span.AddArg("wasted_records", stats.map_faults.wasted_records +
                                          stats.reduce_faults.wasted_records);
  }
  return stats;
}

}  // namespace mwsj

#endif  // MWSJ_MAPREDUCE_ENGINE_H_
