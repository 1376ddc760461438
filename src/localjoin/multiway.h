#ifndef MWSJ_LOCALJOIN_MULTIWAY_H_
#define MWSJ_LOCALJOIN_MULTIWAY_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/effects.h"
#include "geometry/rect.h"
#include "localjoin/rtree.h"
#include "query/query.h"

namespace mwsj {

/// A rectangle held by a reducer: geometry plus the global id used to
/// assemble output tuples.
struct LocalRect {
  Rect rect;
  int64_t id = 0;
};

/// The owner window of a multiway local join: the half-planes x > x_lo and
/// y < y_hi that must each hold some member's start point
/// (GridPartition::QuadrantXLo/QuadrantYHi of the reducer's cell). An
/// infinite bound imposes no requirement.
struct OwnerWindow {
  double x_lo = -std::numeric_limits<double>::infinity();
  double y_hi = std::numeric_limits<double>::infinity();
};

/// The reach of an owner window: per relation r, the half-planes
/// max_x >= min_max_x[r] and min_y <= max_min_y[r], which hold every
/// member of relation r in every assignment the window admits. A reducer
/// buckets only the rectangles the reach admits; the MultiwayLocalJoin then
/// emits and counts exactly what it would over everything the reducer
/// received.
///
/// Why it holds: an admitted assignment has a member a with
/// a.min_x > x_lo, and a member s of relation r is joined to a by a
/// join-graph path. Each condition moves the next member's max_x left of
/// the previous member's min_x by at most its distance (the x-gap never
/// exceeds the Euclidean gap), and each intermediate member is at most its
/// relation's width wide, so s.max_x > x_lo − Bx[r], where Bx is the reach
/// rule (query/bounds.h ComputeReplicationBounds) over the relations'
/// largest widths at the reducer. The y side is the mirror image about
/// y_hi, with By over the largest heights.
///
/// Each limit is the window bound offset by ReachLimit, the outward
/// rounding f2 shares. An infinite window bound (first column or row) and
/// a limit that overflows impose no limit.
struct OwnerReach {
  std::vector<double> min_max_x;
  std::vector<double> max_min_y;

  /// `reach_x[r]` / `reach_y[r]`: relation r's path bound over the
  /// relations' largest widths / heights at the reducer.
  static OwnerReach Of(const OwnerWindow& window,
                       std::span<const double> reach_x,
                       std::span<const double> reach_y);

  bool Admits(int relation, const Rect& r) const {
    const size_t i = static_cast<size_t>(relation);
    return r.max_x() >= min_max_x[i] && r.min_y() <= max_min_y[i];
  }
};

/// Computes, within one reducer, every full assignment of rectangles (one
/// per query relation) that satisfies all join conditions. This is the
/// "compute the join" step every algorithm's final reduce phase runs
/// (§6.1, §7.1); the caller applies its duplicate-avoidance filter in the
/// emit callback.
///
/// Strategy: index each relation bound after the first with an STR
/// R-tree, bind relations along the join graph starting from the smallest
/// relation, probe the next relation's tree through one connecting
/// condition (one RTree::Collect), and verify the remaining conditions
/// against already-bound rectangles before recursing. A relation of at
/// most one leaf's worth of rectangles is a one-leaf tree, probed by one
/// root-MBR test and one batch-filter call.
///
/// An optional owner window restricts the enumeration to the assignments
/// that can still be owned by the reducer's cell under the §6.2 rule: at
/// least one member must start right of `x_lo` (start.x > x_lo) and at
/// least one member must start below `y_hi` (start.y < y_hi). Both tests
/// are separable over the members, so a partial binding carries a 2-bit
/// `need` mask of the tests no bound member has passed yet; a binding
/// whose outstanding bits no later relation can supply is dropped, and a
/// depth that must supply a bit clips its overlap probe to the half-plane.
/// Pruning only removes subtrees whose every assignment fails a test, and
/// a clipped probe visits a subsequence of the unclipped one, so the
/// windowed emit stream is exactly the unwindowed stream restricted to the
/// assignments that pass both tests.
/// The default window (−∞, +∞) needs no bit and prunes nothing.
///
/// Count() gives Execute's emit count for tree-shaped queries without
/// enumerating: a bottom-up fold over the same plan and the same anchor
/// probe (ProbeAnchor), costing the probes plus the matched pairs.
class MultiwayLocalJoin {
 public:
  /// `relations[r]` holds the rectangles of query relation r present at
  /// this reducer. The spans must outlive the object.
  MultiwayLocalJoin(const Query& query,
                    std::vector<std::span<const LocalRect>> relations,
                    OwnerWindow window = {});

  /// Runs the join. `emit` receives one pointer per relation (indexed by
  /// relation); the pointers are only valid during the callback. All
  /// per-depth buffers live in a scratch owned by this call, so the steady
  /// state allocates only when a depth's candidate list outgrows its
  /// previous high-water mark. `probes`, when set, receives the number of
  /// anchor probes issued (one per binding at depth > 0 whose probe was not
  /// pruned by the window).
  ///
  /// MWSJ_ALLOC_FREE: the binding recursion is every reducer's innermost
  /// loop; per-candidate work must not allocate (bench/micro_localjoin.cc
  /// pins allocs_per_probe == 0). MWSJ_DETERMINISTIC: candidate visit order
  /// — and therefore the emit stream — is part of the byte-identity
  /// contract across platforms and kernel ISAs.
  template <typename Emit>
  MWSJ_ALLOC_FREE MWSJ_DETERMINISTIC void Execute(
      const Emit& emit, int64_t* probes = nullptr) const {
    if (probes != nullptr) *probes = 0;
    for (const auto& relation : relations_) {
      if (relation.empty()) return;  // No full assignment can exist.
    }
    BindScratch scratch;
    // mwsj-check: allow(alloc-free-reach): once-per-Execute scratch setup,
    // not per-candidate work; the recursion below reuses these buffers.
    scratch.assignment.assign(static_cast<size_t>(query_.num_relations()),
                              nullptr);
    // mwsj-check: allow(alloc-free-reach): same once-per-Execute setup.
    scratch.candidates.resize(order_.size());
    Bind(0, need_, scratch, emit);
    if (probes != nullptr) *probes = scratch.probes;
  }

  /// The number of assignments Execute would emit under the same owner
  /// window, computed without enumerating them. Requires Query::IsTree():
  /// every condition is then some depth's anchor, so relation order_[k]
  /// (k > 0) is a child of anchor_relation_[k] and no residual check
  /// remains.
  ///
  /// Factorized bottom-up count (Yannakakis-style, over the binding plan):
  /// a rectangle's 2-bit window class is Supplies(rect) & need_, and an
  /// assignment is emitted iff the OR of its members' classes is need_.
  /// Every non-leaf rectangle keeps a 4-entry vector: entry c counts the
  /// assignments of its subtree whose members' classes OR to c. Depths are
  /// folded from the deepest up to 1: each parent rectangle probes its
  /// child relation once, sums the matched children's vectors (a leaf
  /// child contributes its class), and OR-convolves the sum into its own
  /// vector. The result is the sum of vec[need_] over order_[0]. Cost is
  /// the probes plus the matched pairs, not the output size. `probes`,
  /// when set, receives the number of anchor probes issued.
  ///
  /// MWSJ_ALLOC_FREE: the per-probe loop must not allocate; only the
  /// once-per-call vector setup does. MWSJ_DETERMINISTIC: integer sums.
  MWSJ_ALLOC_FREE MWSJ_DETERMINISTIC int64_t
  Count(int64_t* probes = nullptr) const;

  /// The planned binding order (order_[k] is the relation bound at depth
  /// k): smallest relation first, then greedily the smallest relation
  /// connected to the bound set, ties broken by lowest relation index so
  /// the plan is platform-deterministic. Exposed for tests and EXPLAIN.
  const std::vector<int>& binding_order() const { return order_; }

 private:
  /// Reusable per-Execute buffers: the assignment under construction, one
  /// candidate list per depth (a single shared list would be clobbered by
  /// the recursion), and the R-tree traversal stack (probes complete
  /// before recursing, so one stack serves all depths).
  struct BindScratch {
    std::vector<const LocalRect*> assignment;
    std::vector<std::vector<int32_t>> candidates;
    RTree::QueryScratch rtree;
    int64_t probes = 0;  // Anchor probes issued.
  };

  // Per-rectangle count vector of Count(), indexed by window class.
  using ClassCounts = std::array<int64_t, 4>;

  // Owner-window tests a member can pass (bits of the `need` mask).
  static constexpr uint8_t kNeedX = 1;  // start.x > window_.x_lo
  static constexpr uint8_t kNeedY = 2;  // start.y < window_.y_hi

  uint8_t Supplies(const Rect& r) const {
    return static_cast<uint8_t>((r.min_x() > window_.x_lo ? kNeedX : 0) |
                                (r.max_y() < window_.y_hi ? kNeedY : 0));
  }

  // Clips the overlap probe box `*q` (the anchor rectangle) to the
  // half-planes of the `must` tests: a candidate starting right of x_lo
  // that meets the anchor meets the clipped box. False when the anchor
  // cannot reach a required half-plane, so no candidate can pass.
  bool ClipOverlapProbe(uint8_t must, Rect* q) const {
    const bool need_x = (must & kNeedX) != 0;
    const bool need_y = (must & kNeedY) != 0;
    if (need_x && !(q->max_x() > window_.x_lo)) return false;
    if (need_y && !(q->min_y() < window_.y_hi)) return false;
    *q = Rect(need_x ? std::max(q->min_x(), window_.x_lo) : q->min_x(),
              q->min_y(), q->max_x(),
              need_y ? std::min(q->max_y(), window_.y_hi) : q->max_y());
    return true;
  }

  // `need` holds the window tests no member bound so far has passed.
  template <typename Emit>
  void Bind(size_t depth, uint8_t need, BindScratch& scratch,
            const Emit& emit) const {
    if (depth == order_.size()) {
      emit(scratch.assignment);
      return;
    }
    const int r = order_[depth];
    const auto relation = relations_[static_cast<size_t>(r)];
    // Tests only this depth's candidate can still pass.
    const uint8_t later = avail_[depth + 1];
    const uint8_t must = need & static_cast<uint8_t>(~later);

    auto try_candidate = [&](const LocalRect& candidate) {
      // Once every test has passed (always, without a window) the
      // recursion below skips the window arithmetic.
      uint8_t rest = 0;
      if (need != 0) {
        rest = need & static_cast<uint8_t>(~Supplies(candidate.rect));
        if ((rest & ~later) != 0) return;
      }
      for (int ci : check_conditions_[depth]) {
        const JoinCondition& c = query_.conditions()[static_cast<size_t>(ci)];
        const int other = (c.left == r) ? c.right : c.left;
        const LocalRect* bound_rect =
            scratch.assignment[static_cast<size_t>(other)];
        if (!c.predicate.Evaluate(candidate.rect, bound_rect->rect)) return;
      }
      scratch.assignment[static_cast<size_t>(r)] = &candidate;
      Bind(depth + 1, rest, scratch, emit);
      scratch.assignment[static_cast<size_t>(r)] = nullptr;
    };

    if (depth == 0) {
      for (const LocalRect& candidate : relation) try_candidate(candidate);
      return;
    }

    const JoinCondition& anchor =
        query_.conditions()[static_cast<size_t>(anchor_condition_[depth])];
    const LocalRect* anchor_rect =
        scratch.assignment[static_cast<size_t>(anchor_relation_[depth])];
    // A range probe is not narrowed: the candidate's own need check in
    // try_candidate rejects what the window rules out.
    Rect q = anchor_rect->rect;
    if (must != 0 && anchor.predicate.is_overlap() &&
        !ClipOverlapProbe(must, &q)) {
      return;
    }
    ProbeAnchor(depth, q, scratch,
                [&](size_t idx) { try_candidate(relation[idx]); });
  }

  // The anchor probe of depth `depth`, shared by Bind and Count: calls
  // `visit(i)`, in tree order, for every rectangle i of relation
  // order_[depth] meeting the depth's anchor condition against the probe
  // box `q`. Uses scratch.candidates[depth] and scratch.rtree, so a visit
  // may start a probe at a deeper depth but not at this one.
  template <typename Visit>
  void ProbeAnchor(size_t depth, const Rect& q, BindScratch& scratch,
                   const Visit& visit) const {
    ++scratch.probes;
    const RTree& tree = *trees_[static_cast<size_t>(order_[depth])];
    const Predicate& predicate =
        query_.conditions()[static_cast<size_t>(anchor_condition_[depth])]
            .predicate;
    std::vector<int32_t>& candidates = scratch.candidates[depth];
    candidates.clear();
    tree.Collect(predicate, q, &scratch.rtree, &candidates);
    for (int32_t idx : candidates) visit(static_cast<size_t>(idx));
  }

  const Query& query_;
  std::vector<std::span<const LocalRect>> relations_;
  OwnerWindow window_;
  // Window tests the join must see passed (bits for the finite bounds),
  // and avail_[k]: the tests some rectangle of the relations bound at
  // depth >= k passes (avail_[order_.size()] == 0).
  uint8_t need_ = 0;
  std::vector<uint8_t> avail_;
  // One R-tree per relation probed at depth > 0 (null for order_[0]).
  std::vector<std::unique_ptr<RTree>> trees_;

  // Binding plan: order_[k] is the relation bound at depth k; for k > 0,
  // anchor_condition_[k] connects it to the already-bound
  // anchor_relation_[k], and check_conditions_[k] lists the other
  // conditions whose endpoints are both bound once depth k binds.
  std::vector<int> order_;
  std::vector<int> anchor_relation_;
  std::vector<int> anchor_condition_;
  std::vector<std::vector<int>> check_conditions_;
};

}  // namespace mwsj

#endif  // MWSJ_LOCALJOIN_MULTIWAY_H_
