#ifndef MWSJ_CORE_CONTROLLED_REPLICATE_H_
#define MWSJ_CORE_CONTROLLED_REPLICATE_H_

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

/// Options for the Controlled-Replicate family.
struct ControlledReplicateOptions {
  /// false → C-Rep (§7): marked rectangles replicate with f1 to the entire
  /// fourth quadrant. true → C-Rep-L (§7.9, §8): marked rectangles
  /// replicate with f2 only to fourth-quadrant cells within the
  /// per-relation distance bound derived from the join graph and the
  /// datasets' diagonal upper bounds (query/bounds.h).
  bool limit_replication = false;

  /// Cell-distance metric for the f2 test when limit_replication is set.
  /// kChebyshev is the provably safe variant (the §7.9/§8 path bounds
  /// constrain each axis separately); kEuclidean is the paper's literal f2
  /// and can miss corner cells — kept for fidelity experiments.
  DistanceMetric limit_metric = DistanceMetric::kChebyshev;

  /// Count output tuples without materializing them (see JoinRunResult).
  bool count_only = false;

  /// Optional resident-artifact catalog plus the base key covering the
  /// canonical query, the dataset epochs, and the grid (the grid key that
  /// RunSpatialJoin gets from AcquireGrid). When both are set, the round-1
  /// marking output — which depends only on those inputs, never on the
  /// limit options — is reused across jobs: a repeat query skips the
  /// whole split+mark round, and C-Rep / C-Rep-L share one artifact.
  /// Empty key disables reuse.
  DatasetCatalog* catalog = nullptr;
  std::string artifact_key;
};

/// The Controlled-Replicate framework (§7, §8, §9): two map-reduce rounds.
///
/// Round 1 splits every relation; each reducer c decides, for the
/// rectangles *starting* in c, whether they must be replicated, by testing
/// the existence of a rectangle-set satisfying the paper's conditions:
///
///   C1  the set is consistent with its relation-set (§7.3);
///   C2  for every query condition joining a relation inside the set to a
///       relation outside it, the inside rectangle crosses the cell
///       boundary (overlap edges, §7.4) or some foreign cell lies within
///       the edge's distance d (range edges, §8) — hybrid queries apply
///       the per-edge test (§9);
///   C3  at least one such inside/outside condition exists;
///   C4  maximality — an efficiency clause only: the union over maximal
///       sets equals the union over all sets satisfying C1–C3, which is
///       what the implementation computes (a rectangle is marked iff SOME
///       witness set containing it satisfies C1–C3).
///
/// Round 2 replicates marked rectangles (f1, or bounded f2 for C-Rep-L),
/// projects unmarked ones, computes the local multi-way join at each
/// reducer, and emits a tuple only at the cell owning its §6.2 reference
/// point (u_r.x, u_l.y).
///
/// Correctness of the round-2 dedup under this routing (proved here since
/// the paper leaves it implicit):
///  * every *replicated* member reaches the owner cell: the reference
///    point dominates each member's start point (x ≥, y ≤), so the owner
///    cell lies in the fourth quadrant of each member's start cell, and —
///    for C-Rep-L — within the per-axis path bound of query/bounds.h;
///  * every *unmarked* member starts in the owner cell itself: if some
///    tuple member did not overlap the start cell of an unmarked member u,
///    the members overlapping that cell would form a witness set
///    satisfying C1–C3 (the inside endpoint of any inside/outside edge
///    must cross to meet its partner), contradicting u being unmarked;
///    hence all members overlap u's start cell, which forces (i) every
///    member's start cell to weakly precede it in both axes and (ii) all
///    unmarked members to share one start cell c0, and places the
///    reference point inside c0 — given the left/above boundary-point
///    ownership convention of GridPartition::CellOfPoint.
///
/// The same routing makes the round-2 local join ownership-aware (the
/// join round's reduce in core/controlled_replicate.cc, which All-Replicate
/// shares). CellOfPoint is monotone in each axis, so the owner
/// is (max member row, max member column), and every member at cell c
/// starts in or up-left of c. The owner's column reaches c's iff some
/// member starts right of c's left grid line, and its row reaches c's iff
/// some member starts below c's top grid line
/// (GridPartition::QuadrantXLo/QuadrantYHi). MultiwayLocalJoin prunes
/// every binding that can no longer satisfy both, so each tuple it emits
/// is owned by c; the reducer still runs the exact OwnsTuple check, and
/// its check count equals its owned count. A count-only round on a
/// tree-shaped query counts the tuples passing both tests directly
/// (MultiwayLocalJoin::Count), relying on the same equivalence.
StatusOr<JoinRunResult> ControlledReplicateJoin(
    const Query& query, const GridPartition& grid,
    const std::vector<std::vector<Rect>>& relations,
    const ControlledReplicateOptions& options = {},
    const ExecutionContext& ctx = ExecutionContext());

/// Round-1 marking decision, exposed for unit tests that replay the
/// paper's §7.7 walkthrough: given the rectangles split onto cell `cell`,
/// flags the rectangles C-Rep marks for replication among those starting
/// in `cell`.
///
/// `cell_rects[r]` holds the rectangles of relation r received by this
/// reducer. The result is index-aligned with `cell_rects` down to the
/// position: result[r][i] is 1 iff cell_rects[r][i] starts in `cell` and is
/// marked.
std::vector<std::vector<char>> MarkRectanglesForCell(
    const Query& query, const GridPartition& grid, CellId cell,
    const std::vector<std::vector<LocalRect>>& cell_rects);

}  // namespace mwsj

#endif  // MWSJ_CORE_CONTROLLED_REPLICATE_H_
