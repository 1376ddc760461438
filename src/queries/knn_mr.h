#ifndef MWSJ_QUERIES_KNN_MR_H_
#define MWSJ_QUERIES_KNN_MR_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/effects.h"
#include "common/status.h"
#include "core/records.h"
#include "core/runner.h"
#include "core/scheduler.h"
#include "geometry/rect.h"
#include "io/colcodec.h"
#include "mapreduce/spill.h"
#include "query/query.h"

namespace mwsj {

/// The record the distributed kNN join shuffles: a rectangle tagged with
/// its relation role (0 = query points, stored as degenerate rectangles;
/// 1 = data rectangles) and, for points entering round 2, the per-cell
/// upper bound on the true k-th neighbor distance computed by round 1
/// (+inf when fewer than k rectangles exist).
struct KnnRouted {
  Rect rect;
  int64_t id = 0;
  int32_t relation = 0;
  double bound = 0;
};

/// Columnar spill layout (mapreduce/spill.h) so knn-mr rounds stay
/// byte-identical under a shuffle memory budget: coordinates and the bound
/// through the bijective ordered-bits transform, ids through the
/// sign-biasing key map — exactly the RelRect/MarkedRect scheme
/// (core/records.h).
template <>
struct spill::SpillColumns<KnnRouted> {
  static constexpr bool enabled = true;
  static constexpr size_t kNumColumns = 7;
  static void Scatter(const KnnRouted& v, uint64_t* cols) {
    cols[0] = colcodec::OrderedBitsFromDouble(v.rect.min_x());
    cols[1] = colcodec::OrderedBitsFromDouble(v.rect.min_y());
    cols[2] = colcodec::OrderedBitsFromDouble(v.rect.max_x());
    cols[3] = colcodec::OrderedBitsFromDouble(v.rect.max_y());
    cols[4] = spill::KeyToU64(v.id);
    cols[5] = spill::KeyToU64(v.relation);
    cols[6] = colcodec::OrderedBitsFromDouble(v.bound);
  }
  static KnnRouted Gather(const uint64_t* cols) {
    KnnRouted v;
    v.rect = Rect(colcodec::DoubleFromOrderedBits(cols[0]),
                  colcodec::DoubleFromOrderedBits(cols[1]),
                  colcodec::DoubleFromOrderedBits(cols[2]),
                  colcodec::DoubleFromOrderedBits(cols[3]));
    v.id = spill::KeyFromU64<int64_t>(cols[4]);
    v.relation = spill::KeyFromU64<int32_t>(cols[5]);
    v.bound = colcodec::DoubleFromOrderedBits(cols[6]);
    return v;
  }
};

/// One (point, rectangle) candidate pair surviving a round-2 reducer's
/// local top-k, carrying the exact distance for the global merge.
struct KnnCandidate {
  int64_t point_id = 0;
  int64_t rect_id = 0;
  double distance = 0;
};

template <>
struct spill::SpillColumns<KnnCandidate> {
  static constexpr bool enabled = true;
  static constexpr size_t kNumColumns = 3;
  static void Scatter(const KnnCandidate& v, uint64_t* cols) {
    cols[0] = spill::KeyToU64(v.point_id);
    cols[1] = spill::KeyToU64(v.rect_id);
    cols[2] = colcodec::OrderedBitsFromDouble(v.distance);
  }
  static KnnCandidate Gather(const uint64_t* cols) {
    KnnCandidate v;
    v.point_id = spill::KeyFromU64<int64_t>(cols[0]);
    v.rect_id = spill::KeyFromU64<int64_t>(cols[1]);
    v.distance = colcodec::DoubleFromOrderedBits(cols[2]);
    return v;
  }
};

namespace knn_internal {

/// Ordering of the global merge: distance first, rectangle id breaking
/// exact ties, so k-truncation is deterministic everywhere.
inline bool CandidateLess(const KnnCandidate& a, const KnnCandidate& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.rect_id < b.rect_id;
}

/// Round-3 merge kernel for one point: sorts the point's candidate pairs,
/// collapses duplicates from overlapping cells (a pair emitted by several
/// cells repeats with an identical distance, so duplicates sort adjacent),
/// and calls `emit_row(rank, rect_id)` for the k smallest. Hoisted out of
/// the reduce lambda so it can carry effect annotations and own per-thread
/// scratch — the reduce std::function is one object shared by every reduce
/// worker, so captured scratch would race.
///
/// MWSJ_ALLOC_FREE: runs once per point; the sort buffer is thread-local
/// and grows to each worker's high-water candidate count, so the steady
/// state allocates nothing (tests/queries/knn_mr_test.cc pins this).
/// MWSJ_DETERMINISTIC: rank order is the (distance, rect id) total order,
/// independent of partitioning, thread count, or spill budget.
template <typename EmitRow>
MWSJ_ALLOC_FREE MWSJ_DETERMINISTIC void MergeTopK(
    std::span<const KnnCandidate> values, int k, const EmitRow& emit_row) {
  thread_local std::vector<KnnCandidate> sorted;
  sorted.clear();
  // mwsj-check: allow(alloc-free-reach): thread-local scratch reaches the
  // worker's high-water candidate count once, then is reused per point.
  sorted.insert(sorted.end(), values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end(), CandidateLess);
  int64_t rank = 0;
  for (size_t i = 0; i < sorted.size() && rank < k; ++i) {
    if (i > 0 && sorted[i].rect_id == sorted[i - 1].rect_id) continue;
    emit_row(rank, sorted[i].rect_id);
    ++rank;
  }
}

}  // namespace knn_internal

/// Round-1 output as a resident catalog artifact: per-cell upper bounds on
/// the k-th neighbor distance of any point in that cell (+inf when fewer
/// than k rectangles exist). Cached under the acquired grid's artifact
/// key extended with `|knn_bounds[k=N]`, so a repeat submission of the
/// same (query, datasets, grid, k) skips round 1 entirely.
struct KnnCellBounds {
  std::vector<double> per_cell;
};

/// Distributed kNN join over the map-reduce substrate (ROADMAP item 4,
/// after Lu et al., PAPERS.md): for every point of `relations[0]` (each a
/// degenerate rectangle), find the `k` rectangles of `relations[1]` with
/// the smallest Euclidean MBR distance. Two grid-partitioned rounds plus a
/// merge round:
///
///  1. *bound*: rectangles are Split, points Projected; each reducer
///     derives one upper bound per cell on the k-th neighbor distance of
///     *every* in-cell point — min of the k-th smallest per-rectangle
///     MaxMinDistance (grid/transform.h) and, over a few sample points,
///     the sample's k-th distance plus the cell diagonal; a cell that
///     fewer than k rectangles meet takes the k-th smallest MaxMinDistance
///     over every rectangle, and only fewer than k rectangles in all
///     leave a cell unbounded;
///  2. *join*: each point is replicated to every cell whose Euclidean
///     cell distance is within its bound (all cells when unbounded),
///     rectangles are Split; each reducer builds an R-tree over its cell's
///     rectangles, collects those within each point's bound
///     (RTree::Collect with Predicate::Range(bound), localjoin/rtree.h)
///     and emits the point's local top-k, cut by std::partial_sort;
///  3. *merge*: candidates group by point id; duplicates from overlapping
///     cells collapse and the k smallest (distance, rect id) survive.
///
/// The (distance, rect id) tie-break makes the output byte-identical
/// regardless of partitioning, thread count, ISA, or spill budget. Output
/// tuples are `{point_id, rank, rect_id}` with ranks 0..k-1 per point,
/// sorted by (point, rank) — a 3-ary encoding (rank instead of a second
/// relation id) documented in DESIGN.md §2.14; distances are recomputable
/// exactly as MinDistance(point, rect).
///
/// `query` must have exactly 2 relations (predicates are not interpreted;
/// the query carries the relation count and the canonical artifact key).
/// count_only and distinct_ids are rejected. Runs synchronously on the
/// calling thread, like RunSpatialJoin (core/runner.h); submit through the
/// scheduler via MakeKnnMrJobSpec.
StatusOr<JoinRunResult> RunKnnJoinMr(
    const Query& query, const std::vector<std::vector<Rect>>& relations,
    int k, const RunnerOptions& options);

/// A JobSpec running the distributed kNN join through JobScheduler::Submit:
/// sets `query` and an `execute` hook calling RunKnnJoinMr; the caller
/// supplies the input source (dataset_names / relations /
/// borrowed_relations) and options. Dataset-name submissions inherit the
/// scheduler's catalog artifact key, so the grid and the round-1 bounds
/// become resident artifacts.
JobSpec MakeKnnMrJobSpec(const Query& query, int k);

}  // namespace mwsj

#endif  // MWSJ_QUERIES_KNN_MR_H_
