#include "queries/containment.h"

#include <algorithm>

#include "common/trace.h"
#include "grid/transform.h"
#include "localjoin/rtree.h"
#include "mapreduce/engine.h"

namespace mwsj {

namespace {

// Input/shuffle record: a point (degenerate rect) or a rectangle.
struct Item {
  Rect rect;
  int64_t id = 0;
  bool is_point = false;
};

}  // namespace

StatusOr<ContainmentResult> ContainmentJoin(const GridPartition& grid,
                                            std::span<const Point> points,
                                            std::span<const Rect> rects,
                                            const ExecutionContext& ctx) {
  TraceSpan algo_span(ctx.tracer, "containment", "algorithm");
  algo_span.AddArg("points", static_cast<int64_t>(points.size()));
  algo_span.AddArg("rects", static_cast<int64_t>(rects.size()));

  std::vector<Item> input;
  input.reserve(points.size() + rects.size());
  for (size_t i = 0; i < points.size(); ++i) {
    input.push_back(
        Item{Rect::FromPoint(points[i]), static_cast<int64_t>(i), true});
  }
  for (size_t i = 0; i < rects.size(); ++i) {
    input.push_back(Item{rects[i], static_cast<int64_t>(i), false});
  }

  using Job = MapReduceJob<Item, CellId, Item, std::pair<int64_t, int64_t>>;
  Job job("containment", grid.num_cells());
  job.set_partition([](const CellId& c) { return static_cast<int>(c); });
  job.set_map([&grid](const Item& item, Job::Emitter& emit) {
    if (item.is_point) {
      // Exactly one reducer sees each point, so the result is
      // duplicate-free by construction. A rectangle containing the point
      // overlaps the point's (closed) owner cell and is Split to it.
      emit.Emit(grid.CellOfRect(item.rect), item);
    } else {
      std::vector<CellId> cells;
      SplitCells(grid, item.rect, &cells);
      for (CellId c : cells) emit.Emit(c, item);
    }
  });
  job.set_reduce([](const CellId&, std::span<const Item> values,
                    Job::OutEmitter& out) {
    std::vector<Rect> cell_rects;
    std::vector<int64_t> rect_ids;
    std::vector<const Item*> cell_points;
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
      tree.Collect(Predicate::Overlap(), p->rect, &scratch, &hits);
      for (int32_t h : hits) {
        out.Emit({p->id, rect_ids[static_cast<size_t>(h)]});
      }
    }
  });

  ContainmentResult result;
  result.stats.Add(job.Run(std::span<const Item>(input), &result.pairs, ctx));
  std::sort(result.pairs.begin(), result.pairs.end());
  algo_span.AddArg("output_pairs", static_cast<int64_t>(result.pairs.size()));
  return result;
}

}  // namespace mwsj
