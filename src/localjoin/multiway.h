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
/// R-tree, and bind relations along the join graph starting from the
/// smallest relation. Depth k > 0 binds relation order_[k] through one
/// anchor condition to the already-bound anchor_relation_[k]; the other
/// conditions are checked against already-bound rectangles. A relation of
/// at most one leaf's worth of rectangles is a one-leaf tree, probed by one
/// root-MBR test and one batch-filter call.
///
/// One probe routine serves both consumers: for depth k and anchor
/// rectangle i, the depth's R-tree is probed once per call, on first use
/// (one RTree::Collect), and the matches are kept for the rest of the call.
/// Execute binds depth-first over these lists, so a rectangle bound under
/// many prefixes (r2 under every r1 on the chain R1–R2–R3) probes its
/// child once. Count folds per-rectangle class vectors over the same lists.
///
/// An optional owner window restricts the enumeration to the assignments
/// that can still be owned by the reducer's cell under the §6.2 rule: at
/// least one member must start right of `x_lo` (start.x > x_lo) and at
/// least one member must start below `y_hi` (start.y < y_hi). Both tests
/// are separable over the members, so a partial binding carries a 2-bit
/// `need` mask of the tests no bound member has passed yet; a binding
/// whose outstanding bits no later relation can supply is dropped, and a
/// depth that must supply a bit skips an overlap anchor that cannot reach
/// its half-plane. Pruning only removes subtrees whose every assignment
/// fails a test, so the windowed emit stream is exactly the unwindowed
/// stream restricted to the assignments that pass both tests.
/// The default window (−∞, +∞) needs no bit and prunes nothing.
class MultiwayLocalJoin {
 public:
  /// `relations[r]` holds the rectangles of query relation r present at
  /// this reducer. The spans must outlive the object.
  MultiwayLocalJoin(const Query& query,
                    std::vector<std::span<const LocalRect>> relations,
                    OwnerWindow window = {});

  /// Runs the join. `emit` receives one pointer per relation (indexed by
  /// relation); the pointers are only valid during the callback. `probes`,
  /// when set, receives the number of anchor probes issued: one per
  /// distinct (depth, anchor rectangle) the binding reached, unless the
  /// window ruled the anchor out every time. An empty relation is the
  /// smallest, so it binds first and nothing is probed.
  ///
  /// MWSJ_ALLOC_FREE: the binding recursion is every reducer's innermost
  /// loop; per-candidate work must not allocate. The per-call scratch is
  /// set up once, and only the kept match lists grow, amortized, with the
  /// probes (bench/micro_localjoin.cc reports allocs_per_exec).
  /// MWSJ_DETERMINISTIC: candidate visit order — and therefore the emit
  /// stream — is part of the byte-identity contract across platforms and
  /// kernel ISAs.
  template <typename Emit>
  MWSJ_ALLOC_FREE MWSJ_DETERMINISTIC void Execute(
      const Emit& emit, int64_t* probes = nullptr) const {
    BindScratch scratch = NewScratch(/*tables=*/true);
    Bind(0, need_, scratch, emit);
    if (probes != nullptr) *probes = scratch.probes;
  }

  /// The number of assignments Execute would emit under the same owner
  /// window, for any query shape. `probes`, when set, receives the number
  /// of anchor probes issued.
  ///
  /// On a tree query (Query::IsTree()) every condition is some depth's
  /// anchor, so relation order_[k] (k > 0) is a child of
  /// anchor_relation_[k] and no residual check remains. Count is then a
  /// factorized fold (Yannakakis-style, over the binding plan): a
  /// rectangle's 2-bit window class is Supplies(rect) & need_, and an
  /// assignment is emitted iff the OR of its members' classes is need_.
  /// Each rectangle reached from order_[0] gets a 4-entry vector, computed
  /// once and memoized: entry c counts the assignments of its subtree whose
  /// members' classes OR to c. It is its own unit class OR-convolved with,
  /// per child depth, the sum of its matches' vectors. The result is the
  /// sum of vec[need_] over order_[0]. Cost is the probes plus the matched
  /// pairs, not the output size. On a query with cycles the residual
  /// checks do not factorize, and Count counts Execute's emits.
  ///
  /// MWSJ_ALLOC_FREE: the per-probe loop must not allocate; only the
  /// once-per-call setup and the kept lists do. MWSJ_DETERMINISTIC:
  /// integer sums.
  MWSJ_ALLOC_FREE MWSJ_DETERMINISTIC int64_t
  Count(int64_t* probes = nullptr) const;

  /// The planned binding order (order_[k] is the relation bound at depth
  /// k): smallest relation first, then greedily the smallest relation
  /// connected to the bound set, ties broken by lowest relation index so
  /// the plan is platform-deterministic. Exposed for tests and EXPLAIN.
  const std::vector<int>& binding_order() const { return order_; }

 private:
  // The kept matches of one (depth, anchor rectangle): [begin, end) of the
  // depth's match arena; begin > end until the probe runs.
  struct MatchList {
    size_t begin = 1;
    size_t end = 0;
  };

  // One depth's probe state. A list is read again after another anchor's
  // only under Execute, at a depth anchored below the root (the anchor
  // binds again under another prefix): there `table` holds one list per
  // rectangle of anchor_relation_[k], and the arena keeps them all.
  // Everywhere else (a root rectangle binds once, and Count's fold is
  // memoized) only the last anchor's list can be read again, so `table`
  // is empty, `last` holds that list, and each probe reuses the arena.
  struct DepthMatches {
    std::vector<MatchList> table;
    MatchList last;
    size_t last_anchor = 0;
    std::vector<int32_t> arena;
  };

  /// Per-call state of Execute and Count: the assignment under
  /// construction, one DepthMatches per depth (index 0 unused), and the
  /// R-tree traversal stack (a probe completes before the caller recurses,
  /// so one stack serves all depths).
  struct BindScratch {
    std::vector<const LocalRect*> assignment;
    std::vector<DepthMatches> depths;
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

  // `tables`: whether depths anchored below the root keep one list per
  // anchor rectangle (Execute) or only the last anchor's (Count's fold).
  BindScratch NewScratch(bool tables) const;
  // Count's fold of rectangle i of relation order_[depth] into its memo.
  const ClassCounts& Fold(size_t depth, size_t i, BindScratch& scratch,
                          std::vector<std::vector<ClassCounts>>& folded) const;

  // The probe routine: the indices, in tree order, of the rectangles of
  // relation order_[depth] meeting the depth's anchor condition against
  // rectangle `anchor` of anchor_relation_[depth]. The first call per
  // (depth, anchor) probes the depth's R-tree into its arena; later calls
  // return the kept list. Probes at other depths leave the span valid.
  std::span<const int32_t> Matches(size_t depth, size_t anchor,
                                   BindScratch& scratch) const {
    DepthMatches& d = scratch.depths[depth];
    MatchList* list = &d.last;
    if (!d.table.empty()) {
      list = &d.table[anchor];
    } else if (d.last_anchor != anchor) {
      // Another anchor's list, read to its end: this probe reuses the arena.
      d.last = MatchList{};
      d.last_anchor = anchor;
      d.arena.clear();
    }
    if (list->begin > list->end) {
      ++scratch.probes;
      list->begin = d.arena.size();
      trees_[static_cast<size_t>(order_[depth])]->Collect(
          *anchor_predicate_[depth],
          relations_[static_cast<size_t>(anchor_relation_[depth])][anchor].rect,
          &scratch.rtree, &d.arena);
      list->end = d.arena.size();
    }
    return {d.arena.data() + list->begin, list->end - list->begin};
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

    const size_t a = static_cast<size_t>(anchor_relation_[depth]);
    const LocalRect* anchor = scratch.assignment[a];
    // An overlap partner meets the anchor, so it can pass a test this
    // depth must supply only if the anchor reaches the test's half-plane.
    // A range anchor is not ruled out: try_candidate's need check rejects
    // what the window rules out.
    const uint8_t must = need & static_cast<uint8_t>(~later);
    if (anchor_predicate_[depth]->is_overlap() &&
        (((must & kNeedX) != 0 && !(anchor->rect.max_x() > window_.x_lo)) ||
         ((must & kNeedY) != 0 && !(anchor->rect.min_y() < window_.y_hi)))) {
      return;
    }
    for (int32_t j : Matches(depth,
                             static_cast<size_t>(anchor - relations_[a].data()),
                             scratch)) {
      try_candidate(relation[static_cast<size_t>(j)]);
    }
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
  // the condition with predicate *anchor_predicate_[k] connects it to the
  // already-bound anchor_relation_[k], and check_conditions_[k] lists the
  // other conditions whose endpoints are both bound once depth k binds.
  std::vector<int> order_;
  std::vector<int> anchor_relation_;
  std::vector<const Predicate*> anchor_predicate_;
  std::vector<std::vector<int>> check_conditions_;
};

}  // namespace mwsj

#endif  // MWSJ_LOCALJOIN_MULTIWAY_H_
