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
#include "core/scheduler.h"
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
  if (!out.grid_key.empty()) {
    out.grid = options.catalog->Get<GridPartition>(out.grid_key);
    if (out.grid != nullptr) {
      ++out.catalog_hits;
      grid_span.AddArg("cached", int64_t{1});
    } else {
      ++out.catalog_misses;
    }
  }
  if (out.grid == nullptr) {
    StatusOr<GridPartition> grid = Status::Internal("unreachable");
    if (options.partitioning == Partitioning::kEquiDepth) {
      // Sample start points across all relations (bounded, round-robin).
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
      grid = GridPartition::CreateEquiDepth(space, options.grid_rows,
                                            options.grid_cols, sample);
    } else {
      grid = GridPartition::Create(space, options.grid_rows, options.grid_cols);
    }
    if (!grid.ok()) return grid.status();
    out.grid = std::make_shared<const GridPartition>(std::move(grid.value()));
    if (!out.grid_key.empty()) {
      // First-wins: a concurrent identical job may have stored it already.
      out.grid = options.catalog->Put<GridPartition>(out.grid_key, out.grid);
    }
  }
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

StatusOr<JoinRunResult> ExecuteSpatialJoin(
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

  const Rect space = options.space.value_or(ComputeBoundingSpace(relations));
  // Reject range distances / data extents that would overflow the grid
  // transforms (EnlargeByDistance to ±inf routes a rectangle to no cell,
  // silently dropping its join results).
  if (Status bounds_ok = ValidateQueryBounds(query, space); !bounds_ok.ok()) {
    return bounds_ok;
  }
  if (options.space.has_value()) {
    for (size_t r = 0; r < relations.size(); ++r) {
      for (const Rect& rect : relations[r]) {
        if (!space.Contains(rect)) {
          return Status::InvalidArgument(StrFormat(
              "relation %zu contains a rectangle outside the declared space",
              r));
        }
      }
    }
  }
  ExecutionContext ctx = options.context;
  if (ctx.label.empty()) ctx.label = AlgorithmName(options.algorithm);

  TraceSpan run_span(ctx.tracer, ctx.label, "run");
  if (ctx.job_id >= 0) run_span.AddArg("job", ctx.job_id);

  StatusOr<GridAcquisition> acquired =
      AcquireGrid(relations, space, options, ctx);
  if (!acquired.ok()) return acquired.status();
  const int64_t catalog_hits = acquired.value().catalog_hits;
  const int64_t catalog_misses = acquired.value().catalog_misses;
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
  result.value().stats.catalog_hits += catalog_hits;
  result.value().stats.catalog_misses += catalog_misses;
  return result;
}

StatusOr<JoinRunResult> RunSpatialJoin(
    const Query& query, const std::vector<std::vector<Rect>>& relations,
    const RunnerOptions& options) {
  JobSpec spec;
  spec.query = query;
  spec.borrowed_relations = &relations;
  spec.options = options;
  return RunJobInline(std::move(spec));
}

}  // namespace mwsj
