#ifndef MWSJ_CORE_RUNNER_H_
#define MWSJ_CORE_RUNNER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/execution_context.h"
#include "common/status.h"
#include "core/dataset_catalog.h"
#include "core/records.h"
#include "grid/grid_partition.h"
#include "grid/transform.h"
#include "query/query.h"

namespace mwsj {

/// The algorithms this library implements, in the paper's terminology.
enum class Algorithm {
  kBruteForce,            // single-machine reference, no map-reduce
  kTwoWayCascade,         // §6.1 baseline: series of 2-way MR joins
  kAllReplicate,          // §6.1 baseline: replicate everything, one job
  kControlledReplicate,   // §7/§8/§9: C-Rep, two MR rounds
  kControlledReplicateInLimit,  // §7.9/§8: C-Rep-L, bounded replication
};

const char* AlgorithmName(Algorithm a);

/// How the reducer grid's boundary positions are chosen.
enum class Partitioning {
  kUniform,    // Equal-sized cells — the paper's setup.
  kEquiDepth,  // Boundaries at data quantiles: balances reducer input
               // under spatial skew (extension; see GridPartition).
};

/// End-to-end configuration for RunSpatialJoin.
struct RunnerOptions {
  Algorithm algorithm = Algorithm::kControlledReplicate;

  /// Reducer grid (the paper's experiments use 8x8 = 64 reducers).
  int grid_rows = 8;
  int grid_cols = 8;

  /// Boundary placement; kEquiDepth samples the input start points.
  Partitioning partitioning = Partitioning::kUniform;

  /// The partitioned space. Unset → the bounding box of all input data.
  std::optional<Rect> space;

  /// C-Rep-L cell-distance metric (see ControlledReplicateOptions).
  DistanceMetric limit_metric = DistanceMetric::kChebyshev;

  /// Drop output tuples binding the same rectangle id in several roles.
  /// Convenience for self-joins: "road triples" normally should not list
  /// one road twice. Incompatible with count_only.
  bool distinct_ids = false;

  /// Count output tuples without materializing them (see JoinRunResult).
  bool count_only = false;

  /// Cascade evaluation order override (see CascadeJoin).
  std::vector<int> cascade_order;

  /// When the order is not overridden, pick it with the sampling-based
  /// optimizer (core/optimizer.h) instead of the default breadth-first
  /// order from relation 0.
  bool optimize_cascade_order = false;

  /// Execution environment shared across phases: worker pool (null =
  /// synchronous), optional tracer, a run label for top-level spans, and
  /// the fault-injection plan and retry policy every engine job of the
  /// run executes under (mapreduce/fault.h) —
  /// `mwsj_join --faults=SPEC` plugs in here. `context.job_id` is set by
  /// the JobScheduler for submitted jobs; a standalone run keeps the
  /// default -1, so its spans carry no "job" arg and its JobStats no id.
  ExecutionContext context;

  /// Optional resident-artifact catalog (core/dataset_catalog.h). With a
  /// non-empty `artifact_key`, the run reuses (or builds once) its
  /// reducer grid and — for the C-Rep family — the round-1 marking under
  /// keys derived from it, and counts the lookups into RunStats
  /// catalog_hits/catalog_misses.
  DatasetCatalog* catalog = nullptr;

  /// Base cache key identifying (canonical query, dataset epochs, and the
  /// canonical-rank-to-position binding) — normally composed by the
  /// JobScheduler from Query::CanonicalKey(), the catalog bundle's
  /// data_key, and Query::CanonicalRanks(). Empty disables artifact reuse
  /// even when a catalog is attached (inline relations have no sound key).
  std::string artifact_key;
};

/// Runs the multi-way spatial join `query` over `relations` (one rectangle
/// dataset per query relation, ids = vector positions) with the selected
/// algorithm, and returns the duplicate-free output tuples plus run
/// statistics. All algorithms produce identical tuple sets; they differ in
/// cost profile.
///
/// Self-joins: register the same dataset once per role in the query and
/// pass it once per role here (datasets are taken by const reference, so
/// no copy is needed at the call site beyond the vector of vectors).
///
/// This is the whole pipeline: it validates the query against the
/// datasets and the declared space, builds (or retrieves from the
/// catalog) the reducer grid, dispatches to the selected algorithm, and
/// post-processes the tuples — synchronously, on the calling thread, with
/// all parallelism coming from `options.context.pool`. The JobScheduler
/// (core/scheduler.h) runs exactly this for every admitted job, after
/// composing the job's pool, tracer, job id and catalog into `options`.
StatusOr<JoinRunResult> RunSpatialJoin(
    const Query& query, const std::vector<std::vector<Rect>>& relations,
    const RunnerOptions& options);

/// Smallest rectangle containing every rectangle of every relation —
/// the default partitioned space.
Rect ComputeBoundingSpace(const std::vector<std::vector<Rect>>& relations);

/// The partitioned space of a run: `options.space` when declared, which
/// must then contain every rectangle of every relation (InvalidArgument
/// otherwise), else ComputeBoundingSpace(relations).
StatusOr<Rect> ResolveSpace(const std::vector<std::vector<Rect>>& relations,
                            const RunnerOptions& options);

/// A reducer grid resolved against the catalog: the grid itself, the
/// extended artifact key it is (or would be) resident under, and whether
/// it was already resident. `grid_key` is empty when artifact reuse is
/// disabled (no catalog or empty base key).
struct GridAcquisition {
  std::shared_ptr<const GridPartition> grid;
  std::string grid_key;
  bool cached = false;
};

/// The grid-resolution step of the execution pipeline, shared by
/// RunSpatialJoin and the query workloads that run outside the
/// Algorithm enum (e.g. queries/knn_mr.h): extends `options.artifact_key`
/// with every input the grid construction reads (geometry, partitioning
/// mode, space) and gets the grid through DatasetCatalog::GetOrBuild —
/// resident, or built once (equi-depth grids sample the relations' start
/// points). Records a "grid_build" trace span on `ctx.tracer`, with a
/// `cached` arg when the grid was resident.
StatusOr<GridAcquisition> AcquireGrid(
    const std::vector<std::vector<Rect>>& relations, const Rect& space,
    const RunnerOptions& options, const ExecutionContext& ctx);

}  // namespace mwsj

#endif  // MWSJ_CORE_RUNNER_H_
