// Distributed kNN join (queries/knn_mr.h): the map/reduce lambdas here run
// once per routed record per round — no type-erased callables in the
// kernels, no naked new/malloc; scratch vectors are reused across points
// within a reducer. The round-3 merge kernel is hoisted to the annotated
// knn_internal::MergeTopK (knn_mr.h) so tools/mwsj_check.py
// alloc-free-reach holds its per-point path allocation-free.
#include "queries/knn_mr.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <numbers>
#include <span>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "common/str_format.h"
#include "common/trace.h"
#include "grid/transform.h"
#include "localjoin/rtree.h"
#include "mapreduce/engine.h"

namespace mwsj {

namespace {

constexpr double kUnbounded = std::numeric_limits<double>::infinity();

// Round-1 output: one k-th-distance upper bound per cell holding points.
struct KnnCellBound {
  CellId cell = 0;
  double bound = kUnbounded;
};

// Round-3 output: one ranked neighbor row of the final answer.
struct KnnRankedRow {
  int64_t point_id = 0;
  int64_t rank = 0;
  int64_t rect_id = 0;
};

// Sample points per cell refining the round-1 bound. More samples tighten
// the bound (less round-2 replication) at more round-1 work; eight keeps
// round 1 linear in the cell's rectangles.
constexpr int kMaxBoundSamples = 8;

using knn_internal::CandidateLess;

double CellDiagonal(const GridPartition& grid, CellId cell) {
  const Rect c = grid.CellRect(cell);
  return std::hypot(c.length(), c.breadth());
}

}  // namespace

StatusOr<JoinRunResult> RunKnnJoinMr(
    const Query& query, const std::vector<std::vector<Rect>>& relations,
    int k, const RunnerOptions& options) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (query.num_relations() != 2) {
    return Status::InvalidArgument(
        "knn-mr requires a 2-relation query (points, rectangles)");
  }
  if (relations.size() != 2) {
    return Status::InvalidArgument(
        StrFormat("knn-mr requires 2 datasets, got %zu", relations.size()));
  }
  if (options.count_only || options.distinct_ids) {
    return Status::InvalidArgument(
        "knn-mr does not support count_only or distinct_ids");
  }
  for (const Rect& p : relations[0]) {
    if (p.length() != 0 || p.breadth() != 0) {
      return Status::InvalidArgument(
          "knn-mr relation 0 must hold degenerate point rectangles");
    }
  }

  const StatusOr<Rect> space = ResolveSpace(relations, options);
  if (!space.ok()) return space.status();

  JoinRunResult result;
  const std::vector<Rect>& points = relations[0];
  const std::vector<Rect>& rects = relations[1];
  if (points.empty() || rects.empty()) return result;

  ExecutionContext ctx = options.context;
  if (ctx.label.empty()) ctx.label = "knn-mr";
  TraceSpan run_span(ctx.tracer, ctx.label, "run");
  if (ctx.job_id >= 0) run_span.AddArg("job", ctx.job_id);

  StatusOr<GridAcquisition> acquired =
      AcquireGrid(relations, space.value(), options, ctx);
  if (!acquired.ok()) return acquired.status();
  const GridPartition& grid = *acquired.value().grid;
  const std::string& grid_key = acquired.value().grid_key;

  TraceSpan algo_span(ctx.tracer, "knn_mr", "algorithm");
  algo_span.AddArg("points", static_cast<int64_t>(points.size()));
  algo_span.AddArg("rects", static_cast<int64_t>(rects.size()));
  algo_span.AddArg("k", static_cast<int64_t>(k));

  // Bounds are inflated by a space-relative epsilon so rounding in
  // EnlargeByDistance / the within-distance test cannot exclude a true k-th
  // neighbor sitting exactly at the bound.
  // Inflation only admits extra candidates; the merge ranks by exact
  // distances, so the result stays exact.
  const double radius_epsilon =
      1e-9 * (1.0 + grid.space().length() + grid.space().breadth());

  // ---- Round 1: per-cell upper bound on the k-th neighbor distance of
  // every in-cell point — or a catalog hit on a prior run's bounds.
  const std::string bounds_key =
      grid_key.empty() ? std::string()
                       : grid_key + StrFormat("|knn_bounds[k=%d]", k);
  const auto build_bounds = [&]() -> KnnCellBounds {
    std::vector<KnnRouted> bound_input;
    bound_input.reserve(points.size() + rects.size());
    for (size_t i = 0; i < points.size(); ++i) {
      bound_input.push_back(
          KnnRouted{points[i], static_cast<int64_t>(i), 0, 0});
    }
    for (size_t i = 0; i < rects.size(); ++i) {
      bound_input.push_back(
          KnnRouted{rects[i], static_cast<int64_t>(i), 1, 0});
    }

    using BoundJob = MapReduceJob<KnnRouted, CellId, KnnRouted, KnnCellBound>;
    BoundJob bound_job("knn_mr_round1_bound", grid.num_cells());
    bound_job.set_partition(
        [](const CellId& c) { return static_cast<int>(c); });
    bound_job.set_map([&grid](const KnnRouted& item,
                              BoundJob::Emitter& emit) {
      if (item.relation == 0) {
        emit.Emit(grid.CellOfRect(item.rect), item);
      } else {
        std::vector<CellId> cells;
        SplitCells(grid, item.rect, &cells);
        for (CellId c : cells) emit.Emit(c, item);
      }
    });
    bound_job.set_reduce([&grid, &rects, k, radius_epsilon](
                             const CellId& cell,
                             std::span<const KnnRouted> values,
                             BoundJob::OutEmitter& out) {
      std::vector<const KnnRouted*> cell_points;
      std::vector<const KnnRouted*> cell_rects;
      cell_points.reserve(values.size());
      cell_rects.reserve(values.size());
      for (const KnnRouted& v : values) {
        (v.relation == 0 ? cell_points : cell_rects).push_back(&v);
      }
      if (cell_points.empty()) return;
      // The k-th smallest MaxMinDistance bounds every in-cell point at
      // once: k rectangles are each within that value of any point here.
      // A cell that fewer than k rectangles meet takes it over every
      // rectangle; only fewer than k rectangles in all leave it unbounded.
      const bool local = static_cast<int>(cell_rects.size()) >= k;
      if (!local && static_cast<int>(rects.size()) < k) {
        out.IncrementCounter(kCounterKnnUnboundedCells, 1);
        out.Emit(KnnCellBound{cell, kUnbounded});
        return;
      }
      std::vector<double> distances;
      if (local) {
        distances.reserve(cell_rects.size());
        for (const KnnRouted* r : cell_rects) {
          distances.push_back(CellRectMaxMinDistance(grid, cell, r->rect));
        }
      } else {
        distances.reserve(rects.size());
        for (const Rect& r : rects) {
          distances.push_back(CellRectMaxMinDistance(grid, cell, r));
        }
      }
      std::nth_element(distances.begin(), distances.begin() + (k - 1),
                       distances.end());
      double bound = distances[static_cast<size_t>(k - 1)];
      // Sample refinement: a sample point's own k-th distance plus the
      // cell diagonal also bounds every in-cell point (triangle
      // inequality); with clustered data it is often far tighter than the
      // per-rectangle worst case. It needs k rectangles meeting the cell.
      const double diag = CellDiagonal(grid, cell);
      const size_t stride =
          std::max<size_t>(1, cell_points.size() / kMaxBoundSamples);
      int samples = 0;
      for (size_t i = 0;
           local && i < cell_points.size() && samples < kMaxBoundSamples;
           i += stride, ++samples) {
        const KnnRouted* s = cell_points[i];
        distances.clear();
        for (const KnnRouted* r : cell_rects) {
          distances.push_back(MinDistance(r->rect, s->rect));
        }
        std::nth_element(distances.begin(), distances.begin() + (k - 1),
                         distances.end());
        bound = std::min(bound, distances[static_cast<size_t>(k - 1)] + diag);
      }
      out.IncrementCounter(kCounterKnnBoundedCells, 1);
      out.Emit(KnnCellBound{cell, bound + radius_epsilon});
    });

    std::vector<KnnCellBound> cell_bounds;
    result.stats.Add(bound_job.Run(std::span<const KnnRouted>(bound_input),
                                   &cell_bounds, ctx));

    KnnCellBounds fresh;
    fresh.per_cell.assign(static_cast<size_t>(grid.num_cells()), kUnbounded);
    for (const KnnCellBound& b : cell_bounds) {
      fresh.per_cell[static_cast<size_t>(b.cell)] = b.bound;
    }
    return fresh;
  };
  StatusOr<DatasetCatalog::Resident<KnnCellBounds>> cell_bounds_out =
      DatasetCatalog::GetOrBuild<KnnCellBounds>(options.catalog, bounds_key,
                                                build_bounds);
  if (!cell_bounds_out.ok()) return cell_bounds_out.status();
  if (!grid_key.empty()) {
    result.stats.CountCatalogLookup(acquired.value().cached);
    result.stats.CountCatalogLookup(cell_bounds_out.value().cached);
  }
  const std::vector<double>& bounds = cell_bounds_out.value().value->per_cell;

  // ---- Round 2: replicate points within their bounds, local top-k per
  // (point, cell) over the allocation-free local kNN kernel.
  std::vector<KnnRouted> join_input;
  join_input.reserve(points.size() + rects.size());
  for (size_t i = 0; i < points.size(); ++i) {
    KnnRouted p{points[i], static_cast<int64_t>(i), 0, 0};
    p.bound = bounds[static_cast<size_t>(grid.CellOfRect(p.rect))];
    join_input.push_back(p);
  }
  for (size_t i = 0; i < rects.size(); ++i) {
    join_input.push_back(KnnRouted{rects[i], static_cast<int64_t>(i), 1, 0});
  }

  using JoinJob = MapReduceJob<KnnRouted, CellId, KnnRouted, KnnCandidate>;
  JoinJob join_job("knn_mr_round2_join", grid.num_cells());
  join_job.set_partition([](const CellId& c) { return static_cast<int>(c); });
  join_job.set_map([&grid](const KnnRouted& item, JoinJob::Emitter& emit) {
    std::vector<CellId> cells;
    if (item.relation != 0) {
      SplitCells(grid, item.rect, &cells);
      emit.IncrementCounter(kCounterKnnRectCopies,
                            static_cast<int64_t>(cells.size()));
      for (CellId c : cells) emit.Emit(c, item);
      return;
    }
    emit.IncrementCounter(kCounterKnnPoints, 1);
    if (std::isinf(item.bound)) {
      emit.IncrementCounter(kCounterKnnUnboundedPoints, 1);
      cells.reserve(static_cast<size_t>(grid.num_cells()));
      for (CellId c = 0; c < grid.num_cells(); ++c) cells.push_back(c);
    } else {
      emit.IncrementCounter(kCounterKnnBoundedPoints, 1);
      // EnlargedSplitCells covers the L-infinity box around the bound;
      // the Euclidean cell-distance test trims its corner cells.
      std::vector<CellId> box;
      EnlargedSplitCells(grid, item.rect, item.bound, &box);
      cells.reserve(box.size());
      for (CellId c : box) {
        if (CellRectDistance(grid, c, item.rect,
                             DistanceMetric::kEuclidean) <= item.bound) {
          cells.push_back(c);
        }
      }
    }
    emit.IncrementCounter(kCounterKnnPointCopies,
                          static_cast<int64_t>(cells.size()));
    for (CellId c : cells) emit.Emit(c, item);
  });
  join_job.set_reduce([&grid, k](const CellId& cell,
                                 std::span<const KnnRouted> values,
                                 JoinJob::OutEmitter& out) {
    std::vector<const KnnRouted*> cell_points;
    std::vector<Rect> cell_rects;
    std::vector<int64_t> rect_ids;
    cell_points.reserve(values.size());
    for (const KnnRouted& v : values) {
      if (v.relation == 0) {
        cell_points.push_back(&v);
      } else {
        cell_rects.push_back(v.rect);
        rect_ids.push_back(v.id);
      }
    }
    if (cell_points.empty() || cell_rects.empty()) return;
    const RTree tree(cell_rects);
    // On rectangles spread evenly over the cell, a disc of this radius
    // holds about 2k of them, so most probes around an in-cell point stop
    // at the first or second radius.
    const double n = static_cast<double>(cell_rects.size());
    const double first_radius =
        CellDiagonal(grid, cell) *
        std::sqrt(std::min(static_cast<double>(k), n) / (std::numbers::pi * n));
    knn_internal::LocalTopKScratch scratch;
    // Kept candidates and collected R-tree entries of this call, published
    // once below.
    int64_t kept = 0;
    int64_t collected = 0;
    // Local top-k: the global answer's pairs each have a cell holding both
    // sides where the pair survives this cut (any pair displacing it here
    // also outranks it globally), so truncation loses nothing.
    for (const KnnRouted* p : cell_points) {
      collected += knn_internal::LocalTopK(
          tree, cell_rects, rect_ids, p->rect, p->id, p->bound, first_radius,
          k, &scratch, [&](const KnnCandidate& c) {
            out.Emit(c);
            ++kept;
          });
    }
    if (kept > 0) out.IncrementCounter(kCounterKnnCandidates, kept);
    if (collected > 0) out.IncrementCounter(kCounterKnnProbeHits, collected);
  });

  std::vector<KnnCandidate> candidates;
  result.stats.Add(join_job.Run(std::span<const KnnRouted>(join_input),
                                &candidates, ctx));

  // ---- Round 3: global merge per point — drop duplicate pairs from
  // overlapping cells, keep the k smallest (distance, rect id).
  using MergeJob = MapReduceJob<KnnCandidate, int64_t, KnnCandidate,
                                KnnRankedRow>;
  const int merge_reducers = grid.num_cells();
  MergeJob merge_job("knn_mr_round3_merge", merge_reducers);
  merge_job.set_partition([merge_reducers](const int64_t& point_id) {
    return static_cast<int>(point_id % merge_reducers);
  });
  merge_job.set_map([](const KnnCandidate& c, MergeJob::Emitter& emit) {
    emit.Emit(c.point_id, c);
  });
  merge_job.set_reduce([k](const int64_t& point_id,
                           std::span<const KnnCandidate> values,
                           MergeJob::OutEmitter& out) {
    knn_internal::MergeTopK(values, k, [&](int64_t rank, int64_t rect_id) {
      out.Emit(KnnRankedRow{point_id, rank, rect_id});
    });
  });

  std::vector<KnnRankedRow> rows;
  result.stats.Add(
      merge_job.Run(std::span<const KnnCandidate>(candidates), &rows, ctx));

  Stopwatch post_join;
  result.tuples = TupleBlock(3);
  result.tuples.reserve(rows.size());
  for (const KnnRankedRow& r : rows) {
    const std::span<int64_t> row = result.tuples.AppendRow();
    row[0] = r.point_id;
    row[1] = r.rank;
    row[2] = r.rect_id;
  }
  std::vector<KnnRankedRow>().swap(rows);
  SortTuples(&result.tuples);
  result.num_tuples = static_cast<int64_t>(result.tuples.size());
  result.stats.post_join_seconds += post_join.ElapsedSeconds();
  return result;
}

JobSpec MakeKnnMrJobSpec(const Query& query, int k) {
  JobSpec spec;
  spec.query = query;
  spec.execute = [k](const Query& q,
                     const std::vector<std::vector<Rect>>& rels,
                     const RunnerOptions& opts) {
    return RunKnnJoinMr(q, rels, k, opts);
  };
  return spec;
}

}  // namespace mwsj
