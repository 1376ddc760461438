#ifndef MWSJ_BENCH_PAPER_TABLES_H_
#define MWSJ_BENCH_PAPER_TABLES_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/runner.h"
#include "geometry/rect.h"
#include "mapreduce/cost_model.h"

namespace mwsj::bench {

/// The scaled world every spec runs in.
///
/// The paper runs 1-5 million rectangles per relation on a 16-node Hadoop
/// cluster; `paper_tables` runs a density-preserving scaled world on one
/// process: counts shrink by `scale`, the coordinate space side shrinks by
/// sqrt(scale), and rectangle dimensions / range distances stay at their
/// paper values. This keeps the spatial density — and therefore the
/// expected number of join partners per rectangle, the size of every
/// intermediate result *relative to its input*, and the per-reducer work
/// per record — identical to the paper's workload, which is what the
/// paper's algorithm comparison hinges on. Two quantities do not survive
/// scaling with the reducer grid fixed at the paper's 8x8: output-tuple
/// counts shrink linearly, and the probability that a rectangle crosses a
/// (now smaller) cell boundary is inflated, so C-Rep's replicated fraction
/// is an upper bound on the paper's — still far below All-Replicate's
/// 100%, which preserves the ranking.
///
/// MWSJ_BENCH_SCALE in (0, 1] overrides the default scale (=1 reproduces
/// the full-size world); MWSJ_CPU_SCALE > 0 rescales the cost model's
/// reduce CPU for a machine much faster or slower than the paper's blades.
struct BenchEnv {
  double scale = 0.02;
  ThreadPool* pool = nullptr;
  CostModel model;

  /// A copy with `scale *= factor`. High-selectivity rows (huge outputs
  /// even in the paper) run at a smaller per-row scale, printed per row.
  BenchEnv WithRowScale(double factor) const;
  /// Scales a paper-world count (e.g. nI = 2'000'000) to this run.
  int64_t Count(double paper_count) const;
  /// Scales a paper-world space extent (coordinates only — rectangle
  /// dimensions and range distances are used unscaled).
  double SpaceLength(double paper_length) const;
};

struct World {
  std::vector<std::vector<Rect>> relations;
  Rect space;
};

/// One column of a spec: an algorithm, or one RunnerOptions field (grid,
/// limit metric, partitioning, Cascade order) swept over one algorithm.
struct Variant {
  std::string name;
  RunnerOptions options;
  /// Output may be a subset of the row's first variant's (the paper-literal
  /// Euclidean f2 can drop tuples); every other variant must equal it.
  bool may_lose_tuples = false;
};

/// The paper's cells for one (row, variant); null where it has none.
struct PaperCell {
  const char* time = nullptr;         // "hh:mm"
  const char* replication = nullptr;  // "#replicated, (after replication)"
  bool run = true;  // False where the paper aborted the run (">03:00").
};

struct Row {
  double value;  // The swept parameter at paper scale.
  double row_scale = 1.0;
  std::vector<PaperCell> paper;  // One per variant, or empty.
};

/// One run of one (row, variant). Counters are extrapolated to paper
/// scale by 1/scale; `stats` keeps the measured ones.
struct Measured {
  bool ran = false;
  std::string error;  // Set when the run returned an error.
  double wall_seconds = 0;
  double cpu_seconds = 0;
  double modeled_seconds = 0;  // Cost model over extrapolated counters.
  double replicated = 0;
  double after_replication = 0;  // Projections + copies (Table 2 style).
  double copies = 0;             // Replicated copies only (Table 4 style).
  double communication = 0;      // Records shuffled by all jobs.
  double first_job_skew = 0;     // Max/avg reducer records, first MR job.
  double last_job_skew = 0;      // ... and the last (the join round).
  int idle_cells = 0;  // Join-round reducers that received nothing.
  int64_t output_tuples = 0;
  RunStats stats;
};

/// A finding that holds only at the paper's scale, stated as a ratio of
/// one Measured metric: num's / den's (or num's alone when `den` is null)
/// must lie in [lo, hi] in every row — or, with `trend`, the last row's
/// value over the first row's must. Printed PASS/FAIL; never the exit code.
struct Claim {
  const char* text;
  double Measured::*metric;
  const char* num;
  const char* den = nullptr;
  bool trend = false;
  double lo = 0;
  double hi = std::numeric_limits<double>::infinity();
};

/// One paper table or ablation: a world per row of the swept parameter,
/// one run per (row, variant).
struct Spec {
  const char* name;
  const char* title;
  const char* query;      // "(d)" stands for the row's parameter value.
  const char* parameter;  // The swept parameter's name.
  /// The replication cell shows copies only (the California tables)
  /// instead of projections + copies (core/records.h).
  bool copies_cell = false;
  World (*world)(const BenchEnv& env, double value);
  std::vector<Variant> variants;
  std::vector<Row> rows;
  std::vector<Claim> claims;
};

/// Tables 2-9 and the ablations, in run order.
std::vector<Spec> PaperSpecs();

}  // namespace mwsj::bench

#endif  // MWSJ_BENCH_PAPER_TABLES_H_
