#include "queries/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/trace.h"
#include "core/dedup.h"
#include "grid/transform.h"
#include "localjoin/rtree.h"
#include "mapreduce/engine.h"

namespace mwsj {

namespace {

constexpr double kUnbounded = std::numeric_limits<double>::infinity();

struct Item {
  Rect rect;
  int64_t id = 0;
  bool is_point = false;
  double radius = 0;  // Round-2 search bound for points.
};

struct Candidate {
  int64_t point_id = 0;
  int64_t rect_id = 0;
  double distance = 0;
};

}  // namespace

StatusOr<KnnResult> KnnJoin(const GridPartition& grid,
                            std::span<const Point> points,
                            std::span<const Rect> rects, int k,
                            const ExecutionContext& ctx) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");

  TraceSpan algo_span(ctx.tracer, "knn", "algorithm");
  algo_span.AddArg("points", static_cast<int64_t>(points.size()));
  algo_span.AddArg("rects", static_cast<int64_t>(rects.size()));
  algo_span.AddArg("k", static_cast<int64_t>(k));

  KnnResult result;
  result.neighbors.assign(points.size(), {});
  if (points.empty() || rects.empty()) return result;

  std::vector<Item> input;
  input.reserve(points.size() + rects.size());
  for (size_t i = 0; i < points.size(); ++i) {
    input.push_back(
        Item{Rect::FromPoint(points[i]), static_cast<int64_t>(i), true, 0});
  }
  for (size_t i = 0; i < rects.size(); ++i) {
    input.push_back(Item{rects[i], static_cast<int64_t>(i), false, 0});
  }

  // ---- Round 1: per-point upper bound on the k-th neighbor distance.
  // The bound is inflated by a space-relative epsilon: when it equals the
  // k-th distance exactly, rounding in `point + radius` could otherwise
  // make the enlarged rectangle miss the k-th neighbor (and its owner
  // cell). Inflation only admits extra candidates; the merge round ranks
  // by exact distances, so the result stays exact.
  const double radius_epsilon =
      1e-9 * (1.0 + grid.space().length() + grid.space().breadth());
  using BoundJob = MapReduceJob<Item, CellId, Item, Item>;
  BoundJob bound_job("knn_round1_bound", grid.num_cells());
  bound_job.set_partition([](const CellId& c) { return static_cast<int>(c); });
  bound_job.set_map([&grid](const Item& item, BoundJob::Emitter& emit) {
    if (item.is_point) {
      emit.Emit(grid.CellOfRect(item.rect), item);
    } else {
      std::vector<CellId> cells;
      SplitCells(grid, item.rect, &cells);
      for (CellId c : cells) emit.Emit(c, item);
    }
  });
  bound_job.set_reduce([k, radius_epsilon](const CellId&,
                                           std::span<const Item> values,
                                           BoundJob::OutEmitter& out) {
    std::vector<const Item*> cell_points;
    std::vector<const Item*> cell_rects;
    for (const Item& v : values) {
      (v.is_point ? cell_points : cell_rects).push_back(&v);
    }
    std::vector<double> distances;
    for (const Item* p : cell_points) {
      Item bounded = *p;
      if (static_cast<int>(cell_rects.size()) < k) {
        bounded.radius = kUnbounded;
      } else {
        distances.clear();
        distances.reserve(cell_rects.size());
        for (const Item* r : cell_rects) {
          distances.push_back(MinDistance(r->rect, p->rect));
        }
        std::nth_element(distances.begin(),
                         distances.begin() + (k - 1), distances.end());
        bounded.radius =
            distances[static_cast<size_t>(k - 1)] + radius_epsilon;
      }
      out.Emit(bounded);
    }
  });

  std::vector<Item> bounded_points;
  result.stats.Add(
      bound_job.Run(std::span<const Item>(input), &bounded_points, ctx));

  // ---- Round 2: collect candidates within each point's bound.
  std::vector<Item> probe_input = std::move(bounded_points);
  for (size_t i = 0; i < rects.size(); ++i) {
    probe_input.push_back(Item{rects[i], static_cast<int64_t>(i), false, 0});
  }

  using ProbeJob = MapReduceJob<Item, CellId, Item, Candidate>;
  ProbeJob probe_job("knn_round2_probe", grid.num_cells());
  probe_job.set_partition([](const CellId& c) { return static_cast<int>(c); });
  probe_job.set_map([&grid](const Item& item, ProbeJob::Emitter& emit) {
    std::vector<CellId> cells;
    if (!item.is_point) {
      SplitCells(grid, item.rect, &cells);
    } else if (std::isinf(item.radius)) {
      for (CellId c = 0; c < grid.num_cells(); ++c) cells.push_back(c);
    } else {
      EnlargedSplitCells(grid, item.rect, item.radius, &cells);
    }
    for (CellId c : cells) emit.Emit(c, item);
  });
  probe_job.set_reduce([&grid](const CellId& cell,
                               std::span<const Item> values,
                               ProbeJob::OutEmitter& out) {
    std::vector<const Item*> cell_points;
    std::vector<Rect> cell_rects;
    std::vector<int64_t> rect_ids;
    for (const Item& v : values) {
      if (v.is_point) {
        cell_points.push_back(&v);
      } else {
        cell_rects.push_back(v.rect);
        rect_ids.push_back(v.id);
      }
    }
    if (cell_points.empty() || cell_rects.empty()) return;
    const RTree tree(cell_rects);
    RTree::QueryScratch scratch;
    std::vector<int32_t> hits;
    for (const Item* p : cell_points) {
      hits.clear();
      tree.Collect(Predicate::Range(p->radius), p->rect, &scratch, &hits);
      for (int32_t h : hits) {
        const Rect& r = cell_rects[static_cast<size_t>(h)];
        // Each (point, rect) candidate is emitted by one cell: the §5.3
        // owner for bounded points, the rectangle's start cell otherwise
        // (unbounded points reach every cell).
        const bool owns =
            std::isinf(p->radius)
                ? grid.CellOfRect(r) == cell
                : OwnsRangePair(grid, cell, p->rect, r, p->radius);
        if (!owns) continue;
        out.Emit(Candidate{p->id, rect_ids[static_cast<size_t>(h)],
                           MinDistance(r, p->rect)});
      }
    }
  });

  std::vector<Candidate> candidates;
  result.stats.Add(probe_job.Run(std::span<const Item>(probe_input),
                                 &candidates, ctx));

  // ---- Round 3: merge per point, keep the k smallest (distance, id).
  using MergeJob = MapReduceJob<Candidate, int64_t, Candidate,
                                std::pair<int64_t, std::vector<KnnNeighbor>>>;
  const int merge_reducers = grid.num_cells();
  MergeJob merge_job("knn_round3_merge", merge_reducers);
  merge_job.set_partition([merge_reducers](const int64_t& point_id) {
    return static_cast<int>(point_id % merge_reducers);
  });
  merge_job.set_map([](const Candidate& c, MergeJob::Emitter& emit) {
    emit.Emit(c.point_id, c);
  });
  merge_job.set_reduce([k](const int64_t& point_id,
                           std::span<const Candidate> values,
                           MergeJob::OutEmitter& out) {
    std::vector<KnnNeighbor> neighbors;
    neighbors.reserve(values.size());
    for (const Candidate& c : values) {
      neighbors.push_back(KnnNeighbor{c.rect_id, c.distance});
    }
    std::sort(neighbors.begin(), neighbors.end(),
              [](const KnnNeighbor& a, const KnnNeighbor& b) {
                if (a.distance != b.distance) return a.distance < b.distance;
                return a.rect_id < b.rect_id;
              });
    if (static_cast<int>(neighbors.size()) > k) {
      neighbors.resize(static_cast<size_t>(k));
    }
    out.Emit({point_id, std::move(neighbors)});
  });

  std::vector<std::pair<int64_t, std::vector<KnnNeighbor>>> merged;
  result.stats.Add(
      merge_job.Run(std::span<const Candidate>(candidates), &merged, ctx));
  for (auto& [point_id, neighbors] : merged) {
    result.neighbors[static_cast<size_t>(point_id)] = std::move(neighbors);
  }
  return result;
}

}  // namespace mwsj
