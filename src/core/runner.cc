#include "core/runner.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/stopwatch.h"
#include "common/str_format.h"
#include "common/trace.h"
#include "core/all_replicate.h"
#include "core/cascade.h"
#include "core/controlled_replicate.h"
#include "core/optimizer.h"
#include "localjoin/brute_force.h"
#include "query/bounds.h"

namespace mwsj {

const char* AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kBruteForce:
      return "BruteForce";
    case Algorithm::kTwoWayCascade:
      return "2-way Cascade";
    case Algorithm::kAllReplicate:
      return "All-Replicate";
    case Algorithm::kControlledReplicate:
      return "C-Rep";
    case Algorithm::kControlledReplicateInLimit:
      return "C-Rep-L";
  }
  return "Unknown";
}

Rect ComputeBoundingSpace(const std::vector<std::vector<Rect>>& relations) {
  bool first = true;
  Rect space;
  for (const auto& relation : relations) {
    for (const Rect& r : relation) {
      space = first ? r : Rect::Union(space, r);
      first = false;
    }
  }
  if (first) return Rect(0, 0, 1, 1);  // No data: any non-empty space works.
  // Grow degenerate extents so the grid has positive cell sizes.
  if (space.length() <= 0 || space.breadth() <= 0) {
    space = Rect(space.min_x(), space.min_y() - 1, space.max_x() + 1,
                 space.max_y());
  }
  return space;
}

StatusOr<Rect> ResolveSpace(const std::vector<std::vector<Rect>>& relations,
                            const RunnerOptions& options) {
  if (!options.space.has_value()) return ComputeBoundingSpace(relations);
  for (size_t r = 0; r < relations.size(); ++r) {
    for (const Rect& rect : relations[r]) {
      if (!options.space->Contains(rect)) {
        return Status::InvalidArgument(StrFormat(
            "relation %zu contains a rectangle outside the declared space",
            r));
      }
    }
  }
  return *options.space;
}

StatusOr<GridAcquisition> AcquireGrid(
    const std::vector<std::vector<Rect>>& relations, const Rect& space,
    const RunnerOptions& options, const ExecutionContext& ctx) {
  GridAcquisition out;
  // With a catalog and a base key, the grid is a resident artifact: the
  // key extends the base (canonical query + dataset epochs) with every
  // input the grid construction reads, so a hit is always byte-equivalent
  // to rebuilding. Equi-depth grids depend on the data only through the
  // datasets already pinned by the base key's epochs.
  if (options.catalog != nullptr && !options.artifact_key.empty()) {
    out.grid_key = options.artifact_key +
                   StrFormat("|grid[%dx%d,p%d,space %.17g %.17g %.17g %.17g]",
                             options.grid_rows, options.grid_cols,
                             static_cast<int>(options.partitioning),
                             space.min_x(), space.min_y(), space.max_x(),
                             space.max_y());
  }
  TraceSpan grid_span(ctx.tracer, "grid_build", "stage");
  StatusOr<DatasetCatalog::Resident<GridPartition>> grid =
      DatasetCatalog::GetOrBuild<GridPartition>(
          options.catalog, out.grid_key, [&]() -> StatusOr<GridPartition> {
            if (options.partitioning != Partitioning::kEquiDepth) {
              return GridPartition::Create(space, options.grid_rows,
                                           options.grid_cols);
            }
            // Sample start points across all relations (bounded,
            // round-robin).
            std::vector<Rect> sample;
            constexpr size_t kMaxSample = 20'000;
            size_t total = 0;
            for (const auto& rel : relations) total += rel.size();
            const size_t stride = std::max<size_t>(1, total / kMaxSample);
            size_t i = 0;
            for (const auto& rel : relations) {
              for (const Rect& r : rel) {
                if (i++ % stride == 0) sample.push_back(r);
              }
            }
            return GridPartition::CreateEquiDepth(
                space, options.grid_rows, options.grid_cols, sample);
          });
  if (!grid.ok()) return grid.status();
  out.grid = std::move(grid.value().value);
  out.cached = grid.value().cached;
  if (out.cached) grid_span.AddArg("cached", int64_t{1});
  grid_span.AddArg("rows", static_cast<int64_t>(options.grid_rows));
  grid_span.AddArg("cols", static_cast<int64_t>(options.grid_cols));
  grid_span.End();
  return out;
}

namespace {

void FilterDistinctIds(TupleBlock* tuples) {
  tuples->EraseIf([](IdTuple t) {
    for (size_t i = 0; i < t.size(); ++i) {
      for (size_t j = i + 1; j < t.size(); ++j) {
        if (t[i] == t[j]) return true;
      }
    }
    return false;
  });
}

}  // namespace

StatusOr<JoinRunResult> RunSpatialJoin(
    const Query& query, const std::vector<std::vector<Rect>>& relations,
    const RunnerOptions& options) {
  if (static_cast<int>(relations.size()) != query.num_relations()) {
    return Status::InvalidArgument(
        StrFormat("query has %d relations but %zu datasets were supplied",
                  query.num_relations(), relations.size()));
  }
  if (options.count_only && options.distinct_ids) {
    return Status::InvalidArgument(
        "count_only cannot be combined with distinct_ids (the filter needs "
        "materialized tuples)");
  }

  const StatusOr<Rect> resolved = ResolveSpace(relations, options);
  if (!resolved.ok()) return resolved.status();
  const Rect& space = resolved.value();
  // Reject range distances / data extents that would overflow the grid
  // transforms (EnlargeByDistance to ±inf routes a rectangle to no cell,
  // silently dropping its join results).
  if (Status bounds_ok = ValidateQueryBounds(query, space); !bounds_ok.ok()) {
    return bounds_ok;
  }
  ExecutionContext ctx = options.context;
  if (ctx.label.empty()) ctx.label = AlgorithmName(options.algorithm);

  TraceSpan run_span(ctx.tracer, ctx.label, "run");
  if (ctx.job_id >= 0) run_span.AddArg("job", ctx.job_id);

  StatusOr<GridAcquisition> acquired =
      AcquireGrid(relations, space, options, ctx);
  if (!acquired.ok()) return acquired.status();
  const std::string& grid_key = acquired.value().grid_key;
  const GridPartition& grid_ref = *acquired.value().grid;

  StatusOr<JoinRunResult> result = Status::Internal("unreachable");
  switch (options.algorithm) {
    case Algorithm::kBruteForce: {
      JoinRunResult r;
      r.tuples = BruteForceJoin(query, relations);
      r.num_tuples = static_cast<int64_t>(r.tuples.size());
      if (options.count_only) r.tuples.clear();
      result = std::move(r);
      break;
    }
    case Algorithm::kTwoWayCascade: {
      std::vector<int> order = options.cascade_order;
      if (order.empty() && options.optimize_cascade_order) {
        order = OptimizeCascadeOrder(query, relations);
      }
      result = CascadeJoin(query, grid_ref, relations, std::move(order),
                           options.count_only, ctx);
      break;
    }
    case Algorithm::kAllReplicate:
      result = AllReplicateJoin(query, grid_ref, relations,
                                options.count_only, ctx);
      break;
    case Algorithm::kControlledReplicate:
    case Algorithm::kControlledReplicateInLimit: {
      ControlledReplicateOptions crep;
      crep.limit_replication =
          options.algorithm == Algorithm::kControlledReplicateInLimit;
      crep.limit_metric = options.limit_metric;
      crep.count_only = options.count_only;
      crep.catalog = options.catalog;
      crep.artifact_key = grid_key;
      result = ControlledReplicateJoin(query, grid_ref, relations, crep, ctx);
      break;
    }
  }
  if (!result.ok()) return result.status();

  if (options.distinct_ids) {
    Stopwatch filter_watch;
    FilterDistinctIds(&result.value().tuples);
    result.value().num_tuples =
        static_cast<int64_t>(result.value().tuples.size());
    result.value().stats.post_join_seconds += filter_watch.ElapsedSeconds();
  }
  if (!grid_key.empty()) {
    result.value().stats.CountCatalogLookup(acquired.value().cached);
  }
  return result;
}

}  // namespace mwsj
