#ifndef MWSJ_CORE_RECORDS_H_
#define MWSJ_CORE_RECORDS_H_

#include <cstdint>
#include <vector>

#include "geometry/rect.h"
#include "io/colcodec.h"
#include "localjoin/tuple_block.h"
#include "localjoin/multiway.h"     // LocalRect
#include "mapreduce/counters.h"
#include "mapreduce/spill.h"

namespace mwsj {

/// A rectangle tagged with its dataset identity — the record type the
/// spatial map-reduce jobs read and shuffle. `relation` indexes the query's
/// relation list; `id` identifies the rectangle within its relation
/// (benches and tests use the position in the input vector).
struct RelRect {
  Rect rect;
  int64_t id = 0;
  int32_t relation = 0;
};

/// Round-1 output of Controlled-Replicate (§7.1): every input rectangle,
/// exactly once, carrying the replication decision flag.
struct MarkedRect {
  Rect rect;
  int64_t id = 0;
  int32_t relation = 0;
  bool marked = false;
};

/// Columnar spill layouts (mapreduce/spill.h) for the shuffled rectangle
/// records: the four coordinates map through the bijective ordered-bits
/// transform (sorted streams delta-pack tightly), id and relation through
/// the sign-biasing key map. Scatter/Gather are exact inverses, so spilled
/// runs decode bit-for-bit — the engine's byte-identity guarantee rests on
/// that.
template <>
struct spill::SpillColumns<RelRect> {
  static constexpr bool enabled = true;
  static constexpr size_t kNumColumns = 6;
  static void Scatter(const RelRect& v, uint64_t* cols) {
    cols[0] = colcodec::OrderedBitsFromDouble(v.rect.min_x());
    cols[1] = colcodec::OrderedBitsFromDouble(v.rect.min_y());
    cols[2] = colcodec::OrderedBitsFromDouble(v.rect.max_x());
    cols[3] = colcodec::OrderedBitsFromDouble(v.rect.max_y());
    cols[4] = spill::KeyToU64(v.id);
    cols[5] = spill::KeyToU64(v.relation);
  }
  static RelRect Gather(const uint64_t* cols) {
    RelRect v;
    v.rect = Rect(colcodec::DoubleFromOrderedBits(cols[0]),
                  colcodec::DoubleFromOrderedBits(cols[1]),
                  colcodec::DoubleFromOrderedBits(cols[2]),
                  colcodec::DoubleFromOrderedBits(cols[3]));
    v.id = spill::KeyFromU64<int64_t>(cols[4]);
    v.relation = spill::KeyFromU64<int32_t>(cols[5]);
    return v;
  }
};

template <>
struct spill::SpillColumns<MarkedRect> {
  static constexpr bool enabled = true;
  static constexpr size_t kNumColumns = 7;
  static void Scatter(const MarkedRect& v, uint64_t* cols) {
    cols[0] = colcodec::OrderedBitsFromDouble(v.rect.min_x());
    cols[1] = colcodec::OrderedBitsFromDouble(v.rect.min_y());
    cols[2] = colcodec::OrderedBitsFromDouble(v.rect.max_x());
    cols[3] = colcodec::OrderedBitsFromDouble(v.rect.max_y());
    cols[4] = spill::KeyToU64(v.id);
    cols[5] = spill::KeyToU64(v.relation);
    cols[6] = v.marked ? 1 : 0;
  }
  static MarkedRect Gather(const uint64_t* cols) {
    MarkedRect v;
    v.rect = Rect(colcodec::DoubleFromOrderedBits(cols[0]),
                  colcodec::DoubleFromOrderedBits(cols[1]),
                  colcodec::DoubleFromOrderedBits(cols[2]),
                  colcodec::DoubleFromOrderedBits(cols[3]));
    v.id = spill::KeyFromU64<int64_t>(cols[4]);
    v.relation = spill::KeyFromU64<int32_t>(cols[5]);
    v.marked = cols[6] != 0;
    return v;
  }
};

/// Result of running a multi-way join end to end: the output tuples (one
/// id per relation, in relation order, lexicographically sorted) plus the
/// per-job statistics of the run. The tuples are one TupleBlock: m ids per
/// row in a single buffer, iterated as IdTuple row views, so a run of N
/// tuples allocates O(1) blocks rather than N vectors. Runs started with
/// `count_only` leave `tuples` empty and report only `num_tuples` —
/// benchmarks over high-selectivity configurations use this to avoid
/// materializing hundreds of millions of ids.
struct JoinRunResult {
  TupleBlock tuples;
  int64_t num_tuples = 0;  // == tuples.size() unless count_only.
  RunStats stats;
};

/// Names of the user counters the algorithms export, mirroring the paper's
/// reported metrics (§7.8.3). The paper's "number of rectangles after
/// replication" is not used consistently across its tables — Table 2's
/// values can only be the *total* rectangles received by the join round's
/// reducers (projections + copies), while Table 4's can only be the
/// replicated *copies* alone — so both are exported:
///   * kCounterRectanglesReplicated: rectangles marked for replication;
///   * kCounterRectanglesAfterReplication: all rectangles received by the
///     join round (projected once + every replicated copy);
///   * kCounterReplicationCopies: copies produced for marked rectangles
///     only.
/// The three are derived from the join round's committed JobStats
/// (intermediate and map-input records) and the marked count, and every
/// other counter is incremented through the engine's attempt-scoped
/// Emitter/OutEmitter, so re-executed task attempts under fault injection
/// never double-count them.
inline constexpr char kCounterRectanglesReplicated[] = "rectangles_replicated";
inline constexpr char kCounterRectanglesAfterReplication[] =
    "rectangles_after_replication";
inline constexpr char kCounterReplicationCopies[] = "replication_copies";
/// Result tuples found by a count_only run (the reduce side counts instead
/// of emitting; see JoinRunResult::num_tuples).
inline constexpr char kCounterTuplesCounted[] = "tuples_counted";
/// Duplicate-avoidance work of a join round (core/dedup.h): ownership
/// checks run on candidate tuples (multi-way rule) or candidate pairs
/// (2-way overlap/range rules), and how many of them the reducer's cell
/// owned. Reducers tally them in locals and add them once per reduce
/// call, so they are exact per job and exactly-once under retries.
inline constexpr char kCounterDedupTupleChecks[] = "dedup_tuple_checks";
inline constexpr char kCounterDedupPairChecks[] = "dedup_pair_checks";
inline constexpr char kCounterDedupOwned[] = "dedup_owned";
/// Anchor probes the join round's multiway local join issued
/// (MultiwayLocalJoin::Execute or Count), summed over its reduce calls:
/// the reducer's index work, as opposed to the tuples it produced.
inline constexpr char kCounterLocalJoinProbes[] = "local_join_probes";
/// Records the join round's reducers dropped before bucketing because the
/// owner window's reach (localjoin/multiway.h OwnerReach) rules them out of
/// every tuple the cell can own, summed over its reduce calls.
inline constexpr char kCounterLocalJoinRectsPruned[] =
    "local_join_rects_pruned";

/// Exactly-once user counters of the distributed kNN join
/// (queries/knn_mr.h), defined here so core's explain/stats rendering can
/// derive its headline metrics without depending on the queries library:
/// replication factor = point_copies / points, candidates per point =
/// candidates / points, bound tightness = bounded_points / points.
inline constexpr char kCounterKnnPoints[] = "knn_points";
inline constexpr char kCounterKnnPointCopies[] = "knn_point_copies";
inline constexpr char kCounterKnnRectCopies[] = "knn_rect_copies";
inline constexpr char kCounterKnnBoundedPoints[] = "knn_bounded_points";
inline constexpr char kCounterKnnUnboundedPoints[] = "knn_unbounded_points";
inline constexpr char kCounterKnnCandidates[] = "knn_candidates";
inline constexpr char kCounterKnnBoundedCells[] = "knn_cells_bounded";
inline constexpr char kCounterKnnUnboundedCells[] = "knn_cells_unbounded";

}  // namespace mwsj

#endif  // MWSJ_CORE_RECORDS_H_
