#ifndef MWSJ_QUERIES_KNN_H_
#define MWSJ_QUERIES_KNN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/execution_context.h"
#include "common/status.h"
#include "geometry/rect.h"
#include "grid/grid_partition.h"

namespace mwsj {

/// One k-nearest-neighbor answer entry.
struct KnnNeighbor {
  int64_t rect_id = 0;
  double distance = 0;

  friend bool operator==(const KnnNeighbor& a, const KnnNeighbor& b) {
    return a.rect_id == b.rect_id && a.distance == b.distance;
  }
};

/// Result of an all-points kNN query.
struct KnnResult {
  /// neighbors[p] lists the k rectangles nearest to point p, ordered by
  /// (distance, rect id); fewer than k entries when the dataset is small.
  std::vector<std::vector<KnnNeighbor>> neighbors;
};

/// The kNN query the paper lists as future work (§10): for every query
/// point, find the k rectangles with the smallest Euclidean MBR distance,
/// MinDistance(rect, point). This is the single-node reference the
/// distributed knn-mr join (queries/knn_mr.h) is checked against, so it
/// shares none of its map-reduce, routing or owner-rule code: one R-tree
/// over `rects`, probed per point with Predicate::Range(r) for a radius r
/// that starts near the expected k-th distance (from `grid.space()` and
/// the rectangle density; the grid's cells play no part) and doubles until
/// the probe holds every rectangle or its k-th smallest distance lies
/// strictly inside r. A rectangle the probe missed is at distance >= r up
/// to rounding, so the top k of such a probe are exact.
///
/// Ties beyond position k are cut by rectangle id, making the result
/// deterministic. Points run in blocks across `ctx.pool`; each writes its
/// own slot, so the output is the same at any pool size.
StatusOr<KnnResult> KnnJoin(const GridPartition& grid,
                            std::span<const Point> points,
                            std::span<const Rect> rects, int k,
                            const ExecutionContext& ctx = ExecutionContext());

}  // namespace mwsj

#endif  // MWSJ_QUERIES_KNN_H_
