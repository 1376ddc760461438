#include "queries/knn.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "localjoin/rtree.h"

namespace mwsj {

namespace {

constexpr size_t kPointsPerBlock = 512;

// A probe of radius r is exact once its k-th distance is below r by this
// relative margin: the R-tree decides Range(r) on squared distances, so a
// rectangle it leaves out can sit a few ulps under r in hypot form.
constexpr double kInsideMargin = 1 - 1e-9;

bool NeighborLess(const KnnNeighbor& a, const KnnNeighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.rect_id < b.rect_id;
}

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

  const RTree tree(std::vector<Rect>(rects.begin(), rects.end()));
  const size_t want = std::min(static_cast<size_t>(k), rects.size());
  // On uniform data in a square space a disc of this radius holds about 2k
  // rectangles, so most first probes already cut an exact top k.
  double first_radius =
      grid.space().Diagonal() *
      std::sqrt(static_cast<double>(want) /
                (std::numbers::pi * static_cast<double>(rects.size())));
  if (!(first_radius > 0)) first_radius = 1;  // Underflow on tiny spaces.

  const size_t blocks = (points.size() + kPointsPerBlock - 1) / kPointsPerBlock;
  ParallelFor(ctx.pool, blocks, [&](size_t block) {
    RTree::QueryScratch scratch;
    std::vector<int32_t> hits;
    std::vector<KnnNeighbor> found;
    const size_t end = std::min(points.size(), (block + 1) * kPointsPerBlock);
    for (size_t p = block * kPointsPerBlock; p < end; ++p) {
      const Rect point = Rect::FromPoint(points[p]);
      for (double r = first_radius;; r *= 2) {
        hits.clear();
        tree.Collect(Predicate::Range(r), point, &scratch, &hits);
        const bool complete = hits.size() == rects.size() || std::isinf(r);
        if (!complete && hits.size() < want) continue;
        found.clear();
        for (const int32_t h : hits) {
          found.push_back(KnnNeighbor{
              h, MinDistance(rects[static_cast<size_t>(h)], point)});
        }
        const size_t keep = std::min(want, found.size());
        std::partial_sort(found.begin(), found.begin() + keep, found.end(),
                          NeighborLess);
        if (complete || found[keep - 1].distance < r * kInsideMargin) {
          result.neighbors[p].assign(found.begin(), found.begin() + keep);
          break;
        }
      }
    }
  });
  return result;
}

}  // namespace mwsj
