// Benchmark driver for mwsj. For one workload it builds the inputs from a
// seed, runs closed-loop jobs through JobScheduler::Submit on a pool of
// hardware_concurrency() workers, checks every job's output against an
// independent computation, and writes the raw observations as one JSON
// document. perfbench/run.py builds this program, runs it, and turns the
// observations into the reported metrics.
//
//   mwsj_perfbench --workload crep_dense --seed 1 --seconds 15 --trace 0
//                  --out raw.json [--trace-dir DIR]
//
// With --trace 1 the timed loop is split in two halves, untraced then
// traced, and the run adds the per-layer probes: a serial (1-thread)
// reference, direct timed calls into the grid, localjoin, core and queries
// modules, and (service_mix) a one-job-in-flight pass whose span args carry
// exact enumeration counts. Chrome traces go to DIR/<part>.json.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/all_replicate.h"
#include "core/cascade.h"
#include "core/controlled_replicate.h"
#include "core/dataset_catalog.h"
#include "core/records.h"
#include "core/runner.h"
#include "core/scheduler.h"
#include "datagen/synthetic.h"
#include "grid/grid_partition.h"
#include "grid/transform.h"
#include "localjoin/multiway.h"
#include "queries/knn.h"
#include "queries/knn_mr.h"
#include "query/bounds.h"
#include "query/parser.h"
#include "simd/simd.h"

#ifndef MWSJ_PERFBENCH_BUILD_TYPE
#define MWSJ_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace mwsj::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kCrep, kAllRep, kCrepL, kCascade, kKnn };

struct QueryDef {
  Kind kind;
  const char* label;
  const char* text;  // Empty for kNN, which carries no predicates.
};

constexpr QueryDef kCrepQuery{Kind::kCrep, "crep", "R1 OV R2 AND R2 OV R3"};
constexpr QueryDef kAllRepQuery{Kind::kAllRep, "allrep",
                                "R1 OV R2 AND R2 OV R3"};
constexpr QueryDef kCrepLQuery{Kind::kCrepL, "crepl", "R1 OV R2 AND R2 OV R3"};
constexpr QueryDef kCascadeQuery{Kind::kCascade, "cascade",
                                 "R1 RA(50) R2 AND R2 OV R3"};
constexpr QueryDef kKnnQuery{Kind::kKnn, "knn_mr", ""};

constexpr int kKnnK = 10;
constexpr int64_t kKnnPoints = 10'000;

struct Workload {
  const char* name;
  int64_t rects_per_relation;
  double space;
  double lmax;
  double bmax;
  std::vector<QueryDef> mix;  // Each client cycles through it in order.
  bool count_only;
  int64_t shuffle_budget;  // ExecutionOptions::shuffle_memory_budget.
  int clients;
  int max_in_flight;
  bool use_catalog;
  int setup_reps;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"crep_dense", 100'000, 40'000, 400, 400, {kCrepQuery},
       /*count_only=*/true, /*shuffle_budget=*/-1, /*clients=*/1,
       /*max_in_flight=*/1, /*use_catalog=*/false, /*setup_reps=*/31},
      {"allrep_spill", 100'000, 40'000, 100, 100, {kAllRepQuery},
       /*count_only=*/false, /*shuffle_budget=*/int64_t{64} << 20,
       /*clients=*/1, /*max_in_flight=*/1, /*use_catalog=*/false,
       /*setup_reps=*/31},
      {"service_mix", 25'000, 40'000, 400, 400,
       {kCrepLQuery, kCascadeQuery, kKnnQuery},
       /*count_only=*/false, /*shuffle_budget=*/-1, /*clients=*/4,
       /*max_in_flight=*/2, /*use_catalog=*/true, /*setup_reps=*/3},
  };
  return kWorkloads;
}

Algorithm AlgorithmOf(Kind kind) {
  switch (kind) {
    case Kind::kCrep:
      return Algorithm::kControlledReplicate;
    case Kind::kAllRep:
      return Algorithm::kAllReplicate;
    case Kind::kCrepL:
      return Algorithm::kControlledReplicateInLimit;
    case Kind::kCascade:
      return Algorithm::kTwoWayCascade;
    case Kind::kKnn:
      break;
  }
  return Algorithm::kControlledReplicate;  // kNN ignores the algorithm.
}

// ---------------------------------------------------------------------------
// Small helpers: JSON text, resource usage, output digests
// ---------------------------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string Num(int64_t v) { return std::to_string(v); }

/// Builds one JSON object; values are pre-rendered JSON text.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += Quote(key) + ": " + json;
    return *this;
  }
  JsonObject& Add(const std::string& key, double v) { return Raw(key, Num(v)); }
  JsonObject& Add(const std::string& key, int64_t v) {
    return Raw(key, Num(v));
  }
  JsonObject& Add(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Add(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  JsonObject& Add(const std::string& key, const char* v) {
    return Raw(key, Quote(v));
  }
  std::string Str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? ", " : "") + items[i];
  }
  return out + "]";
}

std::string JsonArray(const std::vector<double>& values) {
  std::vector<std::string> items;
  for (double v : values) items.push_back(Num(v));
  return JsonArray(items);
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

/// Peak resident set size (VmHWM) in KiB, or the lifetime maximum from
/// getrusage where /proc is unavailable.
int64_t PeakRssKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// Resets VmHWM to the current RSS, so the next PeakRssKib() covers only
/// what runs in between. Best effort: without it the peak includes set-up.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Order-independent fingerprint of a tuple multiset: the count plus the
/// wrapping sum of per-tuple hashes. Results of count-only jobs carry no
/// tuples and compare by count alone.
struct Digest {
  int64_t count = 0;
  uint64_t sum = 0;
  bool counted_only = false;

  void Add(std::span<const int64_t> tuple) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (int64_t v : tuple) h = Mix64(h ^ static_cast<uint64_t>(v));
    sum += h;
    ++count;
  }

  bool Matches(const Digest& other) const {
    if (count != other.count) return false;
    return counted_only || other.counted_only || sum == other.sum;
  }
};

/// `count_only` comes from the job's spec, never from the result, so a
/// materialized job that loses its tuples cannot pass on its count.
Digest DigestOf(const JoinRunResult& result, bool count_only) {
  Digest d;
  if (count_only) {
    d.count = result.num_tuples;
    d.counted_only = true;
    return d;
  }
  for (const IdTuple& t : result.tuples) d.Add(t);
  return d;
}

// ---------------------------------------------------------------------------
// Inputs and set-up
// ---------------------------------------------------------------------------

struct Inputs {
  std::vector<std::vector<Rect>> relations;  // R1, R2, R3.
  std::vector<Rect> points;                   // kNN query points, if any.
};

/// Relation i of seed s uses generator seed 3(s-1)+i+1, so seed 1 gives the
/// `mwsj_datagen --seed {1,2,3}` datasets.
StatusOr<std::vector<Rect>> GenerateRelation(const Workload& w, uint64_t seed,
                                             int index) {
  SyntheticParams params;
  params.num_rectangles = w.rects_per_relation;
  params.seed = 3 * (seed - 1) + static_cast<uint64_t>(index) + 1;
  params.x_max = params.y_max = w.space;
  params.l_max = w.lmax;
  params.b_max = w.bmax;
  return GenerateSynthetic(params);
}

std::vector<Rect> GeneratePoints(const Workload& w, uint64_t seed) {
  Rng rng(0x4b4e4e0000000000ULL ^ seed);
  std::vector<Rect> points;
  points.reserve(static_cast<size_t>(kKnnPoints));
  for (int64_t i = 0; i < kKnnPoints; ++i) {
    points.push_back(Rect::FromPoint(
        Point{rng.Uniform(0, w.space), rng.Uniform(0, w.space)}));
  }
  return points;
}

/// Whether mix query `i` runs count-only (kNN jobs always materialize).
bool CountOnly(const Workload& w, size_t i) {
  return w.count_only && w.mix[i].kind != Kind::kKnn;
}

bool HasKnn(const Workload& w) {
  return std::any_of(w.mix.begin(), w.mix.end(),
                     [](const QueryDef& q) { return q.kind == Kind::kKnn; });
}

Query ParseOrDie(const QueryDef& def) {
  StatusOr<Query> q = def.kind == Kind::kKnn
                          ? MakeChainQuery(2, Predicate::Overlap())
                          : ParseQuery(def.text);
  if (!q.ok()) {
    std::fprintf(stderr, "bad query '%s': %s\n", def.text,
                 q.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(q).value();
}

/// Everything a timed loop needs, built by Setup.
struct Env {
  Inputs inputs;
  std::vector<Query> queries;  // Index-aligned with Workload::mix.
  std::unique_ptr<DatasetCatalog> catalog;
};

JobSpec MakeSpec(const Workload& w, const Env& env, size_t mix_index) {
  const QueryDef& def = w.mix[mix_index];
  const Query& query = env.queries[mix_index];
  JobSpec spec;
  if (def.kind == Kind::kKnn) {
    spec = MakeKnnMrJobSpec(query, kKnnK);
  } else {
    spec.query = query;
    spec.options.algorithm = AlgorithmOf(def.kind);
    spec.options.count_only = CountOnly(w, mix_index);
  }
  spec.options.context.label = def.label;
  spec.options.context.options.shuffle_memory_budget = w.shuffle_budget;
  if (env.catalog != nullptr) {
    spec.dataset_names = def.kind == Kind::kKnn
                             ? std::vector<std::string>{"P", "R1"}
                             : std::vector<std::string>{"R1", "R2", "R3"};
  } else {
    spec.borrowed_relations = &env.inputs.relations;
  }
  return spec;
}

void LoadCatalog(const Inputs& inputs, DatasetCatalog* catalog) {
  for (size_t r = 0; r < inputs.relations.size(); ++r) {
    std::string name = "R";
    name += std::to_string(r + 1);
    catalog->PutDataset(name, std::make_shared<const std::vector<Rect>>(
                                  inputs.relations[r]));
  }
  if (!inputs.points.empty()) {
    catalog->PutDataset(
        "P", std::make_shared<const std::vector<Rect>>(inputs.points));
  }
}

SchedulerOptions LoopSchedulerOptions(const Workload& w, const Env& env,
                                      ThreadPool* pool, Tracer* tracer) {
  SchedulerOptions options;
  options.pool = pool;
  options.tracer = tracer;
  options.catalog = env.catalog.get();
  options.max_in_flight = w.max_in_flight;
  options.max_queued = 64;
  return options;
}

struct SetupTimes {
  double setup_s = 0;
  double generate_s = 0;
};

/// Input generation, catalog load and warm-up (one job of each mix query
/// through the workload's scheduler shape, which leaves the catalog's grid,
/// round-1 and kNN-bound artifacts resident).
Env Setup(const Workload& w, uint64_t seed, ThreadPool* pool, Tracer* tracer,
          SetupTimes* times) {
  const Clock::time_point start = Clock::now();
  Env env;
  {
    TraceSpan span(tracer, "datagen.generate", "bench");
    for (int i = 0; i < 3; ++i) {
      StatusOr<std::vector<Rect>> rel = GenerateRelation(w, seed, i);
      if (!rel.ok()) {
        std::fprintf(stderr, "datagen failed: %s\n",
                     rel.status().ToString().c_str());
        std::exit(2);
      }
      env.inputs.relations.push_back(std::move(rel).value());
    }
    if (HasKnn(w)) env.inputs.points = GeneratePoints(w, seed);
  }
  times->generate_s = Since(start);
  for (const QueryDef& def : w.mix) env.queries.push_back(ParseOrDie(def));
  if (w.use_catalog) {
    TraceSpan span(tracer, "core.catalog_load", "bench");
    env.catalog = std::make_unique<DatasetCatalog>();
    LoadCatalog(env.inputs, env.catalog.get());
    span.End();
    TraceSpan warm(tracer, "core.warmup", "bench");
    JobScheduler scheduler(LoopSchedulerOptions(w, env, pool, tracer));
    std::vector<JobHandle> handles;
    for (size_t i = 0; i < w.mix.size(); ++i) {
      StatusOr<JobHandle> h = scheduler.Submit(MakeSpec(w, env, i));
      if (h.ok()) handles.push_back(h.value());
    }
    for (const JobHandle& h : handles) (void)h.Wait();
  }
  times->setup_s = Since(start);
  return env;
}

// ---------------------------------------------------------------------------
// Job records
// ---------------------------------------------------------------------------

struct JobRecord {
  size_t mix_index = 0;
  bool ok = false;
  Digest digest;
  std::string json;  // Everything but the oracle verdict.
};

std::string MrJobJson(const JobStats& job) {
  JsonObject o;
  o.Add("name", job.job_name)
      .Add("wall_s", job.wall_seconds)
      .Add("map_s", job.map_seconds)
      .Add("shuffle_s", job.shuffle_seconds)
      .Add("reduce_s", job.reduce_seconds)
      .Add("map_busy_s", job.SumMapChunkSeconds())
      .Add("reduce_busy_s", job.SumReducerSeconds())
      .Add("reduce_max_task_s", job.MaxReducerSeconds())
      .Add("reducers", static_cast<int64_t>(job.per_reducer_seconds.size()))
      .Add("map_input_records", job.map_input_records)
      .Add("intermediate_records", job.intermediate_records)
      .Add("intermediate_bytes", job.intermediate_bytes)
      .Add("spill_budget_bytes", job.spill.budget_bytes)
      .Add("spill_runs", job.spill.spilled_runs)
      .Add("spill_raw_bytes", job.spill.spilled_raw_bytes)
      .Add("spill_stored_bytes", job.spill.spilled_stored_bytes)
      .Add("peak_inbox_bytes", job.spill.peak_inbox_bytes)
      .Add("merge_runs_max", job.spill.merge_runs_max);
  JsonObject counters;
  for (const auto& [name, value] : job.user_counters) {
    counters.Add(name, value);
  }
  o.Raw("counters", counters.Str());
  return o.Str();
}

JobRecord MakeRecord(const char* kind, size_t mix_index, bool count_only,
                     double latency_s, const StatusOr<JoinRunResult>& result) {
  JobRecord rec;
  rec.mix_index = mix_index;
  rec.ok = result.ok();
  JsonObject o;
  o.Add("kind", kind).Add("latency_s", latency_s);
  o.Add("ok", rec.ok).Add("status", result.status().ToString());
  if (rec.ok) {
    const JoinRunResult& r = result.value();
    rec.digest = DigestOf(r, count_only);
    std::vector<std::string> mr;
    for (const JobStats& job : r.stats.jobs) mr.push_back(MrJobJson(job));
    o.Add("num_tuples", r.num_tuples)
        .Add("total_wall_s", r.stats.total_wall_seconds)
        .Add("catalog_hits", r.stats.catalog_hits)
        .Add("catalog_misses", r.stats.catalog_misses)
        .Raw("mr", JsonArray(mr));
  }
  rec.json = o.Str();
  return rec;
}

// ---------------------------------------------------------------------------
// The timed closed loop
// ---------------------------------------------------------------------------

struct LoopResult {
  bool traced = false;
  double wall_s = 0;
  double cpu_s = 0;
  int64_t peak_rss_kib = 0;
  bool peak_reset = false;
  int64_t rejected = 0;
  std::vector<JobRecord> jobs;
};

/// `w.clients` logical clients, driven from this one thread: each keeps one
/// submission outstanding and submits its next mix query as soon as the
/// previous one is observed terminal. No client submits after `seconds`;
/// the loop ends when every outstanding job is done.
LoopResult RunLoop(const Workload& w, Env& env, ThreadPool* pool,
                   Tracer* tracer, double seconds) {
  LoopResult out;
  out.traced = tracer != nullptr;
  JobScheduler scheduler(LoopSchedulerOptions(w, env, pool, tracer));

  struct Client {
    size_t next = 0;
    std::optional<JobHandle> handle;
    size_t mix_index = 0;
    Clock::time_point submitted;
  };
  std::vector<Client> clients(static_cast<size_t>(w.clients));
  for (size_t c = 0; c < clients.size(); ++c) {
    clients[c].next = c % w.mix.size();
  }

  // Peak RSS: VmHWM is read and reset at every job completion, and the
  // result is the median of these windows' peaks, so one rare overlap of
  // large jobs does not decide it. The reset is a cheap write; freed heap
  // is trimmed once, before the timed region, so set-up does not count.
  std::vector<double> window_peaks_kib;
  malloc_trim(0);
  out.peak_reset = ResetPeakRss();
  const double cpu0 = CpuSeconds();
  const Clock::time_point start = Clock::now();

  auto submit = [&](Client& client) {
    while (Since(start) < seconds) {
      client.mix_index = client.next;
      client.next = (client.next + 1) % w.mix.size();
      client.submitted = Clock::now();
      TraceSpan span(tracer, "core.submit", "bench");
      StatusOr<JobHandle> h =
          scheduler.Submit(MakeSpec(w, env, client.mix_index));
      if (h.ok()) {
        client.handle = h.value();
        return;
      }
      ++out.rejected;
    }
    client.handle.reset();
  };
  auto finish = [&](Client& client) {
    const StatusOr<JoinRunResult>& result = client.handle->Wait();
    const double latency = Since(client.submitted);
    window_peaks_kib.push_back(static_cast<double>(PeakRssKib()));
    out.peak_reset = ResetPeakRss();
    out.jobs.push_back(MakeRecord(w.mix[client.mix_index].label,
                                  client.mix_index,
                                  CountOnly(w, client.mix_index), latency,
                                  result));
    client.handle.reset();
  };

  for (Client& client : clients) submit(client);
  for (;;) {
    bool any_outstanding = false;
    bool progressed = false;
    for (Client& client : clients) {
      if (!client.handle.has_value()) continue;
      any_outstanding = true;
      // A lone client blocks in Wait; several poll so that whichever job
      // finishes first is observed first.
      const JobState state = client.handle->status();
      if (clients.size() == 1 || (state != JobState::kQueued &&
                                  state != JobState::kRunning)) {
        finish(client);
        submit(client);
        progressed = true;
      }
    }
    if (!any_outstanding) break;
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  out.wall_s = Since(start);
  out.cpu_s = CpuSeconds() - cpu0;
  out.peak_rss_kib = static_cast<int64_t>(Median(window_peaks_kib));
  return out;
}

std::string LoopJson(const LoopResult& loop,
                     const std::vector<std::string>& job_json) {
  JsonObject o;
  o.Add("traced", loop.traced)
      .Add("wall_s", loop.wall_s)
      .Add("cpu_s", loop.cpu_s)
      .Add("peak_rss_kib", loop.peak_rss_kib)
      .Add("peak_reset", loop.peak_reset)
      .Add("rejected", loop.rejected)
      .Raw("jobs", JsonArray(job_json));
  return o.Str();
}

/// Submits each listed mix query once, one at a time, on `scheduler`.
std::vector<JobRecord> RunOnce(const Workload& w, const Env& env,
                               JobScheduler* scheduler,
                               const std::vector<size_t>& mix_indices) {
  std::vector<JobRecord> out;
  for (size_t i : mix_indices) {
    const Clock::time_point t = Clock::now();
    StatusOr<JobHandle> h = scheduler->Submit(MakeSpec(w, env, i));
    if (!h.ok()) {
      out.push_back(
          MakeRecord(w.mix[i].label, i, CountOnly(w, i), Since(t), h.status()));
      continue;
    }
    const StatusOr<JoinRunResult>& result = h.value().Wait();
    out.push_back(
        MakeRecord(w.mix[i].label, i, CountOnly(w, i), Since(t), result));
  }
  return out;
}

std::vector<size_t> AllMixIndices(const Workload& w) {
  std::vector<size_t> all(w.mix.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return all;
}

// ---------------------------------------------------------------------------
// Oracles: independent computations of every mix query's output
// ---------------------------------------------------------------------------

std::vector<std::span<const LocalRect>> LocalSpans(
    const std::vector<std::vector<LocalRect>>& local) {
  std::vector<std::span<const LocalRect>> spans;
  for (const auto& rel : local) spans.emplace_back(rel.data(), rel.size());
  return spans;
}

std::vector<std::vector<LocalRect>> ToLocal(
    const std::vector<std::vector<Rect>>& relations) {
  std::vector<std::vector<LocalRect>> local(relations.size());
  for (size_t r = 0; r < relations.size(); ++r) {
    local[r].reserve(relations[r].size());
    for (size_t i = 0; i < relations[r].size(); ++i) {
      local[r].push_back(LocalRect{relations[r][i], static_cast<int64_t>(i)});
    }
  }
  return local;
}

/// Single-node local join over the whole input as one cell.
struct LocalJoinProbe {
  double build_s = 0;
  double execute_s = 0;
  int64_t tuples = 0;
};

LocalJoinProbe RunLocalJoin(const Query& query,
                            const std::vector<std::vector<Rect>>& relations,
                            Tracer* tracer) {
  const std::vector<std::vector<LocalRect>> local = ToLocal(relations);
  LocalJoinProbe probe;
  Clock::time_point t = Clock::now();
  TraceSpan build_span(tracer, "localjoin.build", "bench");
  MultiwayLocalJoin join(query, LocalSpans(local));
  build_span.End();
  probe.build_s = Since(t);
  t = Clock::now();
  TraceSpan exec_span(tracer, "localjoin.execute", "bench");
  int64_t count = 0;
  join.Execute([&count](const std::vector<const LocalRect*>&) { ++count; });
  exec_span.End();
  probe.execute_s = Since(t);
  probe.tuples = count;
  return probe;
}

/// A join run on an inline scheduler with a different algorithm.
StatusOr<Digest> ReferenceJoin(const Query& query,
                               const std::vector<std::vector<Rect>>& relations,
                               Algorithm algorithm, ThreadPool* pool) {
  SchedulerOptions options;
  options.pool = pool;
  options.inline_execution = true;
  JobScheduler scheduler(options);
  JobSpec spec;
  spec.query = query;
  spec.borrowed_relations = &relations;
  spec.options.algorithm = algorithm;
  spec.options.context.options.shuffle_memory_budget = -1;
  StatusOr<JobHandle> h = scheduler.Submit(std::move(spec));
  if (!h.ok()) return h.status();
  const StatusOr<JoinRunResult>& r = h.value().Wait();
  if (!r.ok()) return r.status();
  return DigestOf(r.value(), /*count_only=*/false);
}

/// Single-node KnnJoin, rendered as knn-mr's {point, rank, rect} tuples.
StatusOr<Digest> ReferenceKnn(const Inputs& inputs, ThreadPool* pool) {
  const std::vector<Rect>& rects = inputs.relations[0];
  StatusOr<GridPartition> grid = GridPartition::Create(
      ComputeBoundingSpace({inputs.points, rects}), 8, 8);
  if (!grid.ok()) return grid.status();
  std::vector<Point> points;
  points.reserve(inputs.points.size());
  for (const Rect& p : inputs.points) {
    points.push_back(Point{p.min_x(), p.min_y()});
  }
  StatusOr<KnnResult> knn =
      KnnJoin(grid.value(), points, rects, kKnnK, ExecutionContext(pool));
  if (!knn.ok()) return knn.status();
  Digest d;
  const auto& neighbors = knn.value().neighbors;
  for (size_t p = 0; p < neighbors.size(); ++p) {
    for (size_t rank = 0; rank < neighbors[p].size(); ++rank) {
      const int64_t tuple[3] = {static_cast<int64_t>(p),
                                static_cast<int64_t>(rank),
                                neighbors[p][rank].rect_id};
      d.Add(tuple);
    }
  }
  return d;
}

struct Oracle {
  bool ok = false;
  std::string method;
  std::string status;
  Digest digest;
};

Oracle ComputeOracle(const Workload& w, const Env& env, size_t mix_index,
                     ThreadPool* pool,
                     const std::optional<LocalJoinProbe>& probe) {
  const QueryDef& def = w.mix[mix_index];
  const Query& query = env.queries[mix_index];
  const auto& relations = env.inputs.relations;
  Oracle o;
  StatusOr<Digest> d = Status::Internal("no oracle");
  switch (def.kind) {
    case Kind::kCrep: {
      o.method = "single-node MultiwayLocalJoin count";
      Digest count;
      count.counted_only = true;
      count.count = probe.has_value() ? probe->tuples
                                      : RunLocalJoin(query, relations, nullptr)
                                            .tuples;
      d = count;
      break;
    }
    case Kind::kAllRep:
    case Kind::kCascade:
      o.method = "C-Rep on the same inputs";
      d = ReferenceJoin(query, relations, Algorithm::kControlledReplicate,
                        pool);
      break;
    case Kind::kCrepL:
      o.method = "2-way Cascade on the same inputs";
      d = ReferenceJoin(query, relations, Algorithm::kTwoWayCascade, pool);
      break;
    case Kind::kKnn:
      o.method = "single-node KnnJoin";
      d = ReferenceKnn(env.inputs, pool);
      break;
  }
  o.ok = d.ok();
  o.status = d.status().ToString();
  if (d.ok()) o.digest = d.value();
  return o;
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced run only)
// ---------------------------------------------------------------------------

/// Direct timed calls into the grid, localjoin and core modules on the
/// workload's inputs. The query is the workload's first mix query.
std::string RunProbes(const Workload& w, const Env& env, ThreadPool* pool,
                      Tracer* tracer, LocalJoinProbe* localjoin) {
  const Query& query = env.queries[0];
  const auto& relations = env.inputs.relations;
  const Rect space = ComputeBoundingSpace(relations);
  ExecutionContext ctx(pool, tracer);
  ctx.options.shuffle_memory_budget = w.shuffle_budget;
  JsonObject o;

  // grid: AcquireGrid without a catalog (a cold build), median of 5.
  std::vector<double> build_s;
  std::shared_ptr<const GridPartition> grid;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t = Clock::now();
    TraceSpan span(tracer, "grid.build", "bench");
    StatusOr<GridAcquisition> acquired =
        AcquireGrid(relations, space, RunnerOptions(), ctx);
    span.End();
    build_s.push_back(Since(t));
    if (!acquired.ok()) {
      std::fprintf(stderr, "AcquireGrid failed: %s\n",
                   acquired.status().ToString().c_str());
      std::exit(2);
    }
    grid = acquired.value().grid;
  }
  o.Add("grid_build_s", Median(build_s));

  // grid transforms the workload's map phases apply to every input rect:
  // Split, then f1 (C-Rep / All-Rep) or bounded f2 (C-Rep-L). Median of 3.
  const bool limited = w.mix[0].kind == Kind::kCrepL;
  std::vector<double> limit_bounds;
  if (limited) {
    std::vector<double> diagonals;
    for (const auto& rel : relations) diagonals.push_back(MaxDiagonal(rel));
    limit_bounds = ComputeReplicationBounds(query, diagonals);
  }
  std::vector<double> transform_s;
  int64_t cells_emitted = 0;
  std::vector<CellId> cells;
  for (int i = 0; i < 3; ++i) {
    cells_emitted = 0;
    const Clock::time_point t = Clock::now();
    TraceSpan span(tracer, "grid.transform", "bench");
    for (size_t r = 0; r < relations.size(); ++r) {
      for (const Rect& rect : relations[r]) {
        cells.clear();
        SplitCells(*grid, rect, &cells);
        if (limited) {
          ReplicateF2Cells(*grid, rect, limit_bounds[r],
                           DistanceMetric::kChebyshev, &cells);
        } else {
          ReplicateF1Cells(*grid, rect, &cells);
        }
        cells_emitted += static_cast<int64_t>(cells.size());
      }
    }
    span.End();
    transform_s.push_back(Since(t));
  }
  o.Add("grid_transform_s", Median(transform_s));
  o.Add("grid_transform_cells", cells_emitted);

  // localjoin: the whole input as one cell.
  *localjoin = RunLocalJoin(query, relations, tracer);
  o.Add("localjoin_build_s", localjoin->build_s)
      .Add("localjoin_execute_s", localjoin->execute_s)
      .Add("localjoin_tuples", localjoin->tuples);

  // core: the workload's join algorithms called directly on the prebuilt
  // grid, without a catalog.
  double algorithm_s = 0;
  double job_wall_s = 0;
  for (size_t i = 0; i < w.mix.size(); ++i) {
    const QueryDef& def = w.mix[i];
    if (def.kind == Kind::kKnn) continue;
    const Query& q = env.queries[i];
    const Clock::time_point t = Clock::now();
    TraceSpan span(tracer, "core.algorithm", "bench");
    StatusOr<JoinRunResult> r = Status::Internal("unreachable");
    switch (def.kind) {
      case Kind::kCrep:
      case Kind::kCrepL: {
        ControlledReplicateOptions crep;
        crep.limit_replication = def.kind == Kind::kCrepL;
        crep.count_only = w.count_only;
        r = ControlledReplicateJoin(q, *grid, relations, crep, ctx);
        break;
      }
      case Kind::kAllRep:
        r = AllReplicateJoin(q, *grid, relations, w.count_only, ctx);
        break;
      case Kind::kCascade:
        r = CascadeJoin(q, *grid, relations, {}, w.count_only, ctx);
        break;
      case Kind::kKnn:
        break;
    }
    span.End();
    algorithm_s += Since(t);
    if (!r.ok()) {
      std::fprintf(stderr, "direct %s call failed: %s\n", def.label,
                   r.status().ToString().c_str());
      std::exit(2);
    }
    job_wall_s += r.value().stats.total_wall_seconds;
  }
  o.Add("algorithm_s", algorithm_s).Add("algorithm_job_wall_s", job_wall_s);
  return o.Str();
}

/// One kNN-MR job (kKnnPoints seeded points against R1) for workloads whose
/// mix has no kNN query, so the queries layer is measured on every workload.
JobRecord RunKnnProbe(const Workload& w, uint64_t seed, const Env& env,
                      ThreadPool* pool, Tracer* tracer) {
  const std::vector<std::vector<Rect>> relations = {GeneratePoints(w, seed),
                                                    env.inputs.relations[0]};
  SchedulerOptions options;
  options.pool = pool;
  options.tracer = tracer;
  options.max_in_flight = 1;
  JobScheduler scheduler(options);
  JobSpec spec = MakeKnnMrJobSpec(ParseOrDie(kKnnQuery), kKnnK);
  spec.borrowed_relations = &relations;
  spec.options.context.label = kKnnQuery.label;
  spec.options.context.options.shuffle_memory_budget = -1;
  const Clock::time_point t = Clock::now();
  StatusOr<JobHandle> h = scheduler.Submit(std::move(spec));
  if (!h.ok()) {
    return MakeRecord(kKnnQuery.label, 0, /*count_only=*/false, Since(t),
                      h.status());
  }
  return MakeRecord(kKnnQuery.label, 0, /*count_only=*/false, Since(t),
                    h.value().Wait());
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string trace_dir = ".";
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--out PATH [--trace-dir DIR]\n",
               argv0);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(argv[0]);
    const char* v = argv[++i];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(v);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--out") {
      args.out = v;
    } else if (flag == "--trace-dir") {
      args.trace_dir = v;
    } else {
      Usage(argv[0]);
    }
  }
  if (args.workload.empty() || args.out.empty() || args.seed == 0 ||
      args.seconds <= 0) {
    Usage(argv[0]);
  }
  return args;
}

/// A traced phase: its own tracer, written to <trace_dir>/<name>.json.
struct TracePart {
  std::string name;
  std::unique_ptr<Tracer> tracer;
  double offset_s = 0;  // Tracer construction, relative to process start.
};

Tracer* NewPart(std::vector<TracePart>* parts, bool trace,
                const std::string& name) {
  if (!trace) return nullptr;
  parts->push_back(TracePart{name, std::make_unique<Tracer>(),
                             Since(kProcessStart)});
  return parts->back().tracer.get();
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  for (const char* var :
       {"MWSJ_SHUFFLE_BUDGET", "MWSJ_SIMD", "MWSJ_BENCH_SCALE"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "refusing to run: %s is set and would change the "
                   "workload\n", var);
      return 2;
    }
  }
  const Workload* found = nullptr;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool pool(nproc);
  std::vector<TracePart> parts;

  // Set-up, repeated; the last repetition's state is the one measured.
  // Each repetition runs on a thread of its own, so the median does not
  // hang on the speed of the one CPU the main thread happens to sit on.
  Tracer* setup_tracer = NewPart(&parts, args.trace, "setup");
  std::vector<double> setup_s, generate_s;
  Env env;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    env = Env();  // Release the previous repetition first.
    SetupTimes times;
    std::thread([&] {
      env = Setup(w, args.seed, &pool, setup_tracer, &times);
    }).join();
    setup_s.push_back(times.setup_s);
    generate_s.push_back(times.generate_s);
  }

  // Timed loops: untraced for the whole time, or untraced then traced
  // halves, so the traced run also yields the tracing overhead.
  std::vector<LoopResult> loops;
  if (!args.trace) {
    loops.push_back(RunLoop(w, env, &pool, nullptr, args.seconds));
  } else {
    loops.push_back(RunLoop(w, env, &pool, nullptr, args.seconds / 2));
    Tracer* loop_tracer = NewPart(&parts, true, "loop");
    loops.push_back(RunLoop(w, env, &pool, loop_tracer, args.seconds / 2));
  }

  std::vector<JobRecord> serial, enum_pass, knn_probe;
  std::string probes_json = "null";
  std::optional<LocalJoinProbe> localjoin;
  if (args.trace) {
    // Serial reference: every mix query once on a 1-thread pool.
    {
      Tracer* tracer = NewPart(&parts, true, "serial");
      ThreadPool one(1);
      SchedulerOptions options = LoopSchedulerOptions(w, env, &one, tracer);
      options.max_in_flight = 1;
      JobScheduler scheduler(options);
      serial = RunOnce(w, env, &scheduler, AllMixIndices(w));
    }
    // Enumeration counts come from trace span args, which are exact only
    // with one job in flight; service_mix gets a dedicated pass, on a cold
    // catalog so its C-Rep-L job also runs (and times) round 1.
    if (w.clients > 1) {
      Tracer* tracer = NewPart(&parts, true, "enum");
      Env cold;
      cold.queries = env.queries;
      cold.inputs = env.inputs;
      cold.catalog = std::make_unique<DatasetCatalog>();
      LoadCatalog(cold.inputs, cold.catalog.get());
      SchedulerOptions options = LoopSchedulerOptions(w, cold, &pool, tracer);
      options.max_in_flight = 1;
      JobScheduler scheduler(options);
      enum_pass = RunOnce(w, cold, &scheduler, {0});
    }
    Tracer* tracer = NewPart(&parts, true, "probes");
    LocalJoinProbe lj;
    probes_json = RunProbes(w, env, &pool, tracer, &lj);
    localjoin = lj;
    if (!HasKnn(w)) {
      knn_probe.push_back(RunKnnProbe(w, args.seed, env, &pool, tracer));
    }
  }

  // Oracles, outside the timed region and outside set-up.
  std::vector<Oracle> oracles;
  for (size_t i = 0; i < w.mix.size(); ++i) {
    oracles.push_back(ComputeOracle(w, env, i, &pool, localjoin));
  }
  // The kNN probe ran on its own inputs; it gets its own reference.
  std::vector<Oracle> knn_oracle(1);
  if (!knn_probe.empty()) {
    Inputs probe_inputs;
    probe_inputs.relations = {env.inputs.relations[0]};
    probe_inputs.points = GeneratePoints(w, args.seed);
    const StatusOr<Digest> d = ReferenceKnn(probe_inputs, &pool);
    knn_oracle[0].ok = d.ok();
    if (d.ok()) knn_oracle[0].digest = d.value();
  }
  int64_t attempted = 0, failed = 0;
  auto verdicts = [&](const std::vector<JobRecord>& jobs,
                      const std::vector<Oracle>& table) {
    std::vector<std::string> out;
    for (const JobRecord& job : jobs) {
      const Oracle& oracle = table[job.mix_index];
      const bool match =
          job.ok && oracle.ok && job.digest.Matches(oracle.digest);
      ++attempted;
      failed += match ? 0 : 1;
      std::string json = job.json;
      json.insert(json.size() - 1,
                  std::string(", \"match\": ") + (match ? "true" : "false"));
      out.push_back(json);
    }
    return out;
  };
  std::vector<std::string> loops_json;
  for (const LoopResult& loop : loops) {
    attempted += loop.rejected;
    failed += loop.rejected;
    loops_json.push_back(LoopJson(loop, verdicts(loop.jobs, oracles)));
  }
  const std::string serial_json = JsonArray(verdicts(serial, oracles));
  const std::string enum_json = JsonArray(verdicts(enum_pass, oracles));
  const std::string knn_json = JsonArray(verdicts(knn_probe, knn_oracle));

  std::vector<std::string> oracle_json;
  for (size_t i = 0; i < oracles.size(); ++i) {
    JsonObject o;
    o.Add("kind", w.mix[i].label)
        .Add("method", oracles[i].method)
        .Add("ok", oracles[i].ok)
        .Add("status", oracles[i].status)
        .Add("tuples", oracles[i].digest.count);
    oracle_json.push_back(o.Str());
  }

  std::vector<std::string> trace_json;
  for (const TracePart& part : parts) {
    const std::string path = args.trace_dir + "/" + part.name + ".json";
    const Status written = part.tracer->WriteJson(path);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                   written.ToString().c_str());
      return 2;
    }
    JsonObject o;
    o.Add("name", part.name).Add("path", path).Add("offset_s", part.offset_s);
    trace_json.push_back(o.Str());
  }

  JsonObject meta;
  meta.Add("workload", w.name)
      .Add("seed", static_cast<int64_t>(args.seed))
      .Add("seconds", args.seconds)
      .Add("trace", args.trace)
      .Add("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Add("pool_threads", static_cast<int64_t>(pool.num_threads()))
      .Add("isa", simd::IsaName(simd::ActiveIsa()))
      .Add("build_type", MWSJ_PERFBENCH_BUILD_TYPE)
      .Add("clients", static_cast<int64_t>(w.clients))
      .Add("max_in_flight", static_cast<int64_t>(w.max_in_flight))
      .Add("shuffle_budget", w.shuffle_budget)
      .Add("rects_per_relation", w.rects_per_relation);
  JsonObject doc;
  doc.Raw("meta", meta.Str())
      .Add("attempted", attempted)
      .Add("failed", failed)
      .Raw("setup_s", JsonArray(setup_s))
      .Raw("generate_s", JsonArray(generate_s))
      .Raw("loops", JsonArray(loops_json))
      .Raw("serial", serial_json)
      .Raw("enum_pass", enum_json)
      .Raw("knn_probe", knn_json)
      .Raw("probes", probes_json)
      .Raw("oracles", JsonArray(oracle_json))
      .Raw("traces", JsonArray(trace_json));
  std::ofstream out(args.out);
  out << doc.Str() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace mwsj::perfbench

int main(int argc, char** argv) { return mwsj::perfbench::Main(argc, argv); }
