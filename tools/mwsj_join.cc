// mwsj_join — run a multi-way spatial join from dataset files.
//
//   mwsj_join --query "R1 OV R2 AND R2 RA(100) R3"
//             --input R1=cities.csv --input R2=forests.bin
//             --input R3=rivers.csv
//             [--algorithm crep|crepl|cascade|allrep|brute|knn-mr]
//             [--k N]
//             [--grid 8x8] [--partitioning uniform|equidepth]
//             [--distinct-ids] [--count-only] [--optimize-order]
//             [--estimate] [--verify] [--explain] [--threads N]
//             [--jobs N]
//             [--faults seed=42,crash=0.05,flaky=0.05,slow=0.02]
//             [--output tuples.csv] [--stats-json stats.json]
//             [--trace trace.json]
//
// Datasets are CSV (x,y,l,b with header) or mwsj binary, selected by
// extension. Prints the run's statistics to stdout; with --output, writes
// the result tuples as CSV. --threads N runs the engine on a worker pool
// (N=0 picks the hardware concurrency); output is identical either way.
// --faults SPEC injects a seeded deterministic fault plan (crash/flaky/
// slow task attempts, see mapreduce/fault.h) into every engine job; the
// output stays byte-identical to a fault-free run while the per-job retry
// and wasted-work accounting is printed and exported via --stats-json.
// --trace PATH records every engine phase, per-chunk/per-reducer task, and
// algorithm stage as spans in Chrome trace-event JSON; open the file in
// https://ui.perfetto.dev or chrome://tracing.
// --jobs N exercises the service path (toward mwsjd): the datasets are
// registered in a resident DatasetCatalog and the query is submitted N
// times to a JobScheduler sharing one pool/tracer. All submissions must
// produce identical output; repeat submissions reuse the resident grid and
// C-Rep round-1 artifacts, and the per-submission catalog hit/miss
// accounting is printed (and lands in --stats-json as "catalog").
// --algorithm knn-mr runs the distributed kNN join (queries/knn_mr.h)
// instead of a multiway join: the query must name exactly two relations —
// degenerate query points, then data rectangles — and the output tuples
// are {point, rank, rect} with ranks 0..k-1 per point (--k, default 10).
// All the other machinery (grids, threads, faults, traces, --jobs with
// grid + round-1-bound artifact reuse, stats JSON) applies unchanged.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/str_format.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/dataset_catalog.h"
#include "core/explain.h"
#include "core/runner.h"
#include "core/scheduler.h"
#include "core/verification.h"
#include "io/dataset_io.h"
#include "mapreduce/cost_model.h"
#include "mapreduce/fault.h"
#include "mapreduce/stats_json.h"
#include "queries/knn_mr.h"
#include "query/parser.h"
#include "stats/grid_histogram.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --query QUERY --input NAME=PATH [--input ...]\n"
               "  [--algorithm crep|crepl|cascade|allrep|brute|knn-mr]\n"
               "  [--k N]\n"
               "  [--grid RxC] [--partitioning uniform|equidepth]\n"
               "  [--distinct-ids] [--count-only] [--optimize-order]\n"
               "  [--estimate] [--verify] [--explain] [--threads N]\n"
               "  [--jobs N]\n"
               "  [--faults seed=S,crash=P,flaky=P,slow=P[,bound=N]]\n"
               "  [--output PATH] [--stats-json PATH] [--trace PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string query_text;
  std::map<std::string, std::string> inputs;
  std::string algorithm_name = "crep";
  std::string output_path;
  std::string stats_json_path;
  std::string trace_path;
  std::string faults_spec;
  bool have_faults = false;
  bool estimate = false;
  bool verify = false;
  bool explain = false;
  int threads = -1;  // -1 = serial (no pool).
  int num_jobs = 1;  // > 1 enables the scheduler/catalog service path.
  int knn_k = 10;    // Neighbors per point under --algorithm knn-mr.
  mwsj::RunnerOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--query") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      query_text = v;
    } else if (arg == "--input") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      const char* eq = std::strchr(v, '=');
      if (!eq) {
        std::fprintf(stderr, "--input expects NAME=PATH, got '%s'\n", v);
        return 2;
      }
      inputs[std::string(v, eq)] = std::string(eq + 1);
    } else if (arg == "--algorithm") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      algorithm_name = v;
    } else if (arg == "--grid") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      const std::string_view grid = v;
      const size_t x = grid.find('x');
      if (x == std::string_view::npos ||
          !mwsj::ParseWhole(grid.substr(0, x), &options.grid_rows) ||
          !mwsj::ParseWhole(grid.substr(x + 1), &options.grid_cols)) {
        std::fprintf(stderr, "--grid expects RxC, got '%s'\n", v);
        return 2;
      }
    } else if (arg == "--partitioning") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      if (std::string(v) == "equidepth") {
        options.partitioning = mwsj::Partitioning::kEquiDepth;
      } else if (std::string(v) == "uniform") {
        options.partitioning = mwsj::Partitioning::kUniform;
      } else {
        std::fprintf(stderr, "unknown partitioning '%s'\n", v);
        return 2;
      }
    } else if (arg == "--distinct-ids") {
      options.distinct_ids = true;
    } else if (arg == "--count-only") {
      options.count_only = true;
    } else if (arg == "--optimize-order") {
      options.optimize_cascade_order = true;
    } else if (arg == "--output") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      output_path = v;
    } else if (arg == "--estimate") {
      estimate = true;
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--stats-json") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      stats_json_path = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      trace_path = v;
    } else if (arg == "--faults") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      faults_spec = v;
      have_faults = true;
    } else if (arg.rfind("--faults=", 0) == 0) {
      faults_spec = arg.substr(std::strlen("--faults="));
      have_faults = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(std::strlen("--trace="));
      if (trace_path.empty()) return Usage(argv[0]);
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      if (!mwsj::ParseWhole(v, &threads) || threads < 0) {
        std::fprintf(stderr, "--threads expects N >= 0, got '%s'\n", v);
        return 2;
      }
    } else if (arg == "--jobs") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      if (!mwsj::ParseWhole(v, &num_jobs) || num_jobs < 1) {
        std::fprintf(stderr, "--jobs expects N >= 1, got '%s'\n", v);
        return 2;
      }
    } else if (arg == "--k") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      if (!mwsj::ParseWhole(v, &knn_k) || knn_k < 1) {
        std::fprintf(stderr, "--k expects N >= 1, got '%s'\n", v);
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (query_text.empty() || inputs.empty()) return Usage(argv[0]);

  const std::map<std::string, mwsj::Algorithm> algorithms = {
      {"crep", mwsj::Algorithm::kControlledReplicate},
      {"crepl", mwsj::Algorithm::kControlledReplicateInLimit},
      {"cascade", mwsj::Algorithm::kTwoWayCascade},
      {"allrep", mwsj::Algorithm::kAllReplicate},
      {"brute", mwsj::Algorithm::kBruteForce},
  };
  const bool knn_mr = algorithm_name == "knn-mr";
  if (!knn_mr) {
    const auto algo_it = algorithms.find(algorithm_name);
    if (algo_it == algorithms.end()) {
      std::fprintf(stderr, "unknown algorithm '%s'\n", algorithm_name.c_str());
      return 2;
    }
    options.algorithm = algo_it->second;
  }

  const mwsj::StatusOr<mwsj::Query> query = mwsj::ParseQuery(query_text);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }

  std::vector<std::vector<mwsj::Rect>> relations;
  for (const std::string& name : query.value().relation_names()) {
    const auto path_it = inputs.find(name);
    if (path_it == inputs.end()) {
      std::fprintf(stderr, "no --input for relation '%s'\n", name.c_str());
      return 2;
    }
    auto data = mwsj::ReadRects(path_it->second);
    if (!data.ok()) {
      std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
      return 1;
    }
    std::printf("%s: %zu rectangles from %s\n", name.c_str(),
                data.value().size(), path_it->second.c_str());
    relations.push_back(std::move(data).value());
  }

  if (estimate) {
    // Pre-run cardinality estimate from grid histograms over samples.
    const mwsj::Rect space = mwsj::ComputeBoundingSpace(relations);
    const auto grid = mwsj::GridPartition::Create(space, options.grid_rows,
                                                  options.grid_cols);
    if (grid.ok()) {
      std::vector<mwsj::GridHistogram> histograms;
      for (const auto& rel : relations) {
        histograms.emplace_back(grid.value(), rel);
      }
      std::printf("estimated output cardinality: %.3g\n",
                  EstimateJoinCardinality(query.value(), histograms));
    }
  }

  std::unique_ptr<mwsj::ThreadPool> pool;
  if (threads >= 0) {
    pool = std::make_unique<mwsj::ThreadPool>(static_cast<size_t>(threads));
    options.context.pool = pool.get();
    std::printf("engine threads: %zu\n", pool->num_threads());
  }
  std::unique_ptr<mwsj::Tracer> tracer;
  if (!trace_path.empty()) {
    tracer = std::make_unique<mwsj::Tracer>();
    options.context.tracer = tracer.get();
  }
  mwsj::FaultPlan fault_plan;
  if (have_faults) {
    auto parsed = mwsj::FaultPlan::Parse(faults_spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--faults: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    fault_plan = std::move(parsed).value();
    options.context.faults = &fault_plan;
    std::printf("fault plan: %s (seed %llu)\n", faults_spec.c_str(),
                static_cast<unsigned long long>(fault_plan.seed()));
  }

  mwsj::StatusOr<mwsj::JoinRunResult> result =
      mwsj::Status::Internal("join did not run");
  if (num_jobs <= 1) {
    result = knn_mr
                 ? mwsj::RunKnnJoinMr(query.value(), relations, knn_k, options)
                 : mwsj::RunSpatialJoin(query.value(), relations, options);
  } else {
    // Service path: register the datasets once in a resident catalog and
    // submit the query N times through the scheduler. The first submission
    // ingests and leaves the grid / round-1 artifacts resident; repeats
    // must hit the catalog and every submission must agree byte-for-byte.
    mwsj::DatasetCatalog catalog;
    // Register under position-unique catalog names: a query that repeats
    // a relation name (self-join roles) would otherwise have the second
    // PutDataset bump the first one's epoch and both roles silently
    // resolve to the last-registered data, diverging from the positional
    // relations the num_jobs==1 path uses.
    std::vector<std::string> names = query.value().relation_names();
    {
      std::map<std::string, int> seen;
      for (size_t r = 0; r < names.size(); ++r) {
        const int uses = seen[names[r]]++;
        if (uses > 0) {
          names[r] = mwsj::StrFormat("%s#%zu", names[r].c_str(), r);
        }
      }
    }
    for (size_t r = 0; r < names.size(); ++r) {
      catalog.PutDataset(names[r], relations[r]);
    }
    mwsj::SchedulerOptions sched_options;
    sched_options.pool = pool.get();
    sched_options.tracer = tracer.get();
    sched_options.catalog = &catalog;
    sched_options.max_in_flight = num_jobs < 4 ? num_jobs : 4;
    sched_options.max_queued = num_jobs;
    std::printf("scheduler: %d submissions, %d in flight\n", num_jobs,
                sched_options.max_in_flight);
    std::vector<mwsj::JobHandle> handles;
    {
      mwsj::JobScheduler scheduler(sched_options);
      for (int j = 0; j < num_jobs; ++j) {
        mwsj::JobSpec spec = knn_mr
                                 ? mwsj::MakeKnnMrJobSpec(query.value(), knn_k)
                                 : mwsj::JobSpec{};
        spec.query = query.value();
        spec.dataset_names = names;
        spec.options = options;
        auto handle = scheduler.Submit(std::move(spec));
        if (!handle.ok()) {
          std::fprintf(stderr, "%s\n", handle.status().ToString().c_str());
          return 1;
        }
        handles.push_back(std::move(handle).value());
      }
    }  // Scheduler destruction drains every submission.
    for (mwsj::JobHandle& handle : handles) {
      const mwsj::StatusOr<mwsj::JoinRunResult>& job_result = handle.Wait();
      if (!job_result.ok()) {
        std::fprintf(stderr, "job #%lld: %s\n",
                     static_cast<long long>(handle.id()),
                     job_result.status().ToString().c_str());
        return 1;
      }
      std::printf("job #%lld: %lld tuples (catalog hits %lld, misses %lld)\n",
                  static_cast<long long>(handle.id()),
                  static_cast<long long>(job_result.value().num_tuples),
                  static_cast<long long>(
                      job_result.value().stats.catalog_hits),
                  static_cast<long long>(
                      job_result.value().stats.catalog_misses));
    }
    const mwsj::JoinRunResult& first = handles.front().Wait().value();
    for (size_t j = 1; j < handles.size(); ++j) {
      const mwsj::JoinRunResult& other = handles[j].Wait().value();
      if (other.num_tuples != first.num_tuples ||
          other.tuples != first.tuples) {
        std::fprintf(stderr, "job #%lld output diverges from job #%lld\n",
                     static_cast<long long>(handles[j].id()),
                     static_cast<long long>(handles.front().id()));
        return 1;
      }
    }
    std::printf(
        "all %d submissions identical; catalog totals: %lld hits,"
        " %lld misses\n",
        num_jobs, static_cast<long long>(catalog.hits()),
        static_cast<long long>(catalog.misses()));
    result = handles.front().Take();
  }
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  if (verify && !options.count_only) {
    if (knn_mr) {
      // VerifyJoinResult checks multiway join predicates; knn-mr tuples are
      // {point, rank, rect} and are pinned by the differential test suite.
      std::printf("verification: skipped (not a predicate join)\n");
    } else {
      const mwsj::Status st = mwsj::VerifyJoinResult(query.value(), relations,
                                                     result.value().tuples);
      if (!st.ok()) {
        std::fprintf(stderr, "VERIFICATION FAILED: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      std::printf("verification: OK (sound and duplicate-free)\n");
    }
  }

  if (knn_mr) {
    std::printf("algorithm: knn-mr (k=%d)\n", knn_k);
  } else {
    std::printf("algorithm: %s\n", AlgorithmName(options.algorithm));
  }
  std::printf("output tuples: %lld\n",
              static_cast<long long>(result.value().num_tuples));
  for (const mwsj::JobStats& job : result.value().stats.jobs) {
    std::printf("  job %-22s in=%lld shuffled=%lld (%s) out=%lld\n",
                job.job_name.c_str(),
                static_cast<long long>(job.map_input_records),
                static_cast<long long>(job.intermediate_records),
                mwsj::FormatMillions(
                    static_cast<double>(job.intermediate_bytes))
                    .c_str(),
                static_cast<long long>(job.reduce_output_records));
    std::printf("      phases map=%.3fs shuffle=%.3fs reduce=%.3fs"
                " (slowest map chunk %.3fs, slowest reducer %.3fs)\n",
                job.map_seconds, job.shuffle_seconds, job.reduce_seconds,
                job.MaxMapChunkSeconds(), job.MaxReducerSeconds());
    if (job.AnyFaults()) {
      std::printf(
          "      faults map=%lld/%lld attempts reduce=%lld/%lld attempts"
          " (retries %lld, speculative %lld, wasted %lld records in %.3fs,"
          " backoff %.3fs)\n",
          static_cast<long long>(job.map_faults.attempts),
          static_cast<long long>(job.map_faults.tasks),
          static_cast<long long>(job.reduce_faults.attempts),
          static_cast<long long>(job.reduce_faults.tasks),
          static_cast<long long>(job.map_faults.retries +
                                 job.reduce_faults.retries),
          static_cast<long long>(job.map_faults.speculative +
                                 job.reduce_faults.speculative),
          static_cast<long long>(job.map_faults.wasted_records +
                                 job.reduce_faults.wasted_records),
          job.map_faults.wasted_seconds + job.reduce_faults.wasted_seconds,
          job.map_faults.backoff_seconds + job.reduce_faults.backoff_seconds);
    }
  }
  const mwsj::CostModel model;
  std::printf("modeled cluster time: %s\n",
              mwsj::FormatHhMm(model.RunSeconds(result.value().stats)).c_str());

  if (explain) {
    std::printf("\n%s", ExplainRun(query.value(), result.value(), model).c_str());
  }
  if (!stats_json_path.empty()) {
    std::ofstream json_out(stats_json_path);
    json_out << mwsj::RunStatsToJson(result.value().stats) << "\n";
    if (!json_out) {
      std::fprintf(stderr, "failed to write %s\n", stats_json_path.c_str());
      return 1;
    }
    std::printf("wrote stats to %s\n", stats_json_path.c_str());
  }

  if (tracer != nullptr) {
    const mwsj::Status st = tracer->WriteJson(trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf(
        "wrote %lld trace events to %s (open in https://ui.perfetto.dev "
        "or chrome://tracing)\n",
        static_cast<long long>(tracer->event_count()), trace_path.c_str());
  }

  if (!output_path.empty()) {
    const std::vector<std::string> columns =
        knn_mr ? std::vector<std::string>{"point", "rank", "rect"}
               : query.value().relation_names();
    const mwsj::Status st =
        mwsj::WriteTuplesCsv(output_path, columns, result.value().tuples);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu tuples to %s\n", result.value().tuples.size(),
                output_path.c_str());
  }
  return 0;
}
