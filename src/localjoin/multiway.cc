// The multiway binding recursion is the innermost loop of every reducer:
// emits are templated (no std::function per candidate) and probes reuse
// BindScratch. Build-time code below may allocate; the probe paths are held
// allocation-free by tools/mwsj_check.py alloc-free-reach rooted at the
// MWSJ_ALLOC_FREE Execute and Count annotations in multiway.h.
#include "localjoin/multiway.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "query/bounds.h"

namespace mwsj {

OwnerReach OwnerReach::Of(const OwnerWindow& window,
                          std::span<const double> reach_x,
                          std::span<const double> reach_y) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  OwnerReach reach{std::vector<double>(reach_x.size(), -kInf),
                   std::vector<double>(reach_y.size(), kInf)};
  for (size_t r = 0; r < reach_x.size(); ++r) {
    // x_lo − Bx, widened left: ReachLimit mirrored about 0.
    const double x = -ReachLimit(-window.x_lo, reach_x[r]);
    if (std::isfinite(x)) reach.min_max_x[r] = x;
    const double y = ReachLimit(window.y_hi, reach_y[r]);
    if (std::isfinite(y)) reach.max_min_y[r] = y;
  }
  return reach;
}

MultiwayLocalJoin::MultiwayLocalJoin(
    const Query& query, std::vector<std::span<const LocalRect>> relations,
    OwnerWindow window)
    : query_(query), relations_(std::move(relations)), window_(window) {
  const int m = query_.num_relations();
  trees_.resize(static_cast<size_t>(m));

  // Plan the binding order greedily: start from the smallest relation,
  // then repeatedly bind the smallest relation connected to the bound set.
  // Ties break toward the lowest relation index (strict < over ascending
  // r), keeping the plan platform-deterministic. The query graph is
  // connected (Query invariant), so this covers all relations.
  std::vector<bool> bound(static_cast<size_t>(m), false);
  int first = 0;
  for (int r = 1; r < m; ++r) {
    if (relations_[static_cast<size_t>(r)].size() <
        relations_[static_cast<size_t>(first)].size()) {
      first = r;
    }
  }
  order_.push_back(first);
  anchor_relation_.push_back(-1);
  anchor_condition_.push_back(-1);
  bound[static_cast<size_t>(first)] = true;

  while (static_cast<int>(order_.size()) < m) {
    int best = -1;
    int best_condition = -1;
    int best_anchor = -1;
    size_t best_size = std::numeric_limits<size_t>::max();
    for (int r = 0; r < m; ++r) {
      if (bound[static_cast<size_t>(r)]) continue;
      for (int ci : query_.ConditionsOf(r)) {
        const JoinCondition& c = query_.conditions()[static_cast<size_t>(ci)];
        const int other = (c.left == r) ? c.right : c.left;
        if (!bound[static_cast<size_t>(other)]) continue;
        if (relations_[static_cast<size_t>(r)].size() < best_size) {
          best = r;
          best_condition = ci;
          best_anchor = other;
          best_size = relations_[static_cast<size_t>(r)].size();
        }
        break;  // One bound-connected condition suffices for the anchor.
      }
    }
    order_.push_back(best);
    anchor_relation_.push_back(best_anchor);
    anchor_condition_.push_back(best_condition);
    bound[static_cast<size_t>(best)] = true;
  }

  // Residual conditions checked at each depth: both endpoints bound, and
  // the condition is not the depth's anchor.
  check_conditions_.resize(order_.size());
  std::fill(bound.begin(), bound.end(), false);
  for (size_t k = 0; k < order_.size(); ++k) {
    const int r = order_[k];
    bound[static_cast<size_t>(r)] = true;
    for (int ci : query_.ConditionsOf(r)) {
      if (ci == anchor_condition_[k]) continue;
      const JoinCondition& c = query_.conditions()[static_cast<size_t>(ci)];
      const int other = (c.left == r) ? c.right : c.left;
      if (bound[static_cast<size_t>(other)]) check_conditions_[k].push_back(ci);
    }
  }

  // Owner window: a finite bound is a test some member must pass, and a
  // relation can supply the tests any of its rectangles passes. Suffix
  // unions over the plan tell Bind which tests the unbound depths can
  // still supply.
  need_ = static_cast<uint8_t>(
      (window_.x_lo > -std::numeric_limits<double>::infinity() ? kNeedX : 0) |
      (window_.y_hi < std::numeric_limits<double>::infinity() ? kNeedY : 0));
  avail_.assign(order_.size() + 1, 0);
  for (size_t k = order_.size(); k-- > 0;) {
    uint8_t supplied = 0;
    for (const LocalRect& lr : relations_[static_cast<size_t>(order_[k])]) {
      supplied |= Supplies(lr.rect);
      if ((supplied & need_) == need_) break;
    }
    avail_[k] = avail_[k + 1] | (supplied & need_);
  }

  // Index every relation probed at depth > 0.
  std::vector<Rect> rects;
  for (size_t k = 1; k < order_.size(); ++k) {
    const auto relation = relations_[static_cast<size_t>(order_[k])];
    rects.clear();
    for (const LocalRect& lr : relation) rects.push_back(lr.rect);
    trees_[static_cast<size_t>(order_[k])] = std::make_unique<RTree>(rects);
  }
}

int64_t MultiwayLocalJoin::Count(int64_t* probes) const {
  if (probes != nullptr) *probes = 0;
  for (const auto& relation : relations_) {
    if (relation.empty()) return 0;  // No full assignment can exist.
  }
  const size_t depths = order_.size();
  auto class_of = [this](const LocalRect& lr) {
    return static_cast<size_t>(Supplies(lr.rect) & need_);
  };
  BindScratch scratch;
  // mwsj-check: allow(alloc-free-reach): once-per-Count scratch setup, not
  // per-probe work; every probe below reuses these buffers.
  scratch.candidates.resize(depths);
  // Count vectors of the parents (relations some depth anchors on, plus
  // the root), each starting at its own class; a leaf's vector is implied
  // by its class.
  std::vector<std::vector<ClassCounts>> counts(relations_.size());
  for (size_t k = 0; k < depths; ++k) {
    const int parent = k == 0 ? order_[0] : anchor_relation_[k];
    auto& vecs = counts[static_cast<size_t>(parent)];
    if (!vecs.empty()) continue;
    const auto relation = relations_[static_cast<size_t>(parent)];
    // mwsj-check: allow(alloc-free-reach): same once-per-Count setup.
    vecs.assign(relation.size(), ClassCounts{});
    for (size_t i = 0; i < relation.size(); ++i) {
      vecs[i][class_of(relation[i])] = 1;
    }
  }

  // Fold from the deepest depth up: every child of order_[k] sits deeper,
  // so its vectors are complete when depth k folds it into its parent.
  for (size_t k = depths; k-- > 1;) {
    const auto child = relations_[static_cast<size_t>(order_[k])];
    const std::vector<ClassCounts>& child_counts =
        counts[static_cast<size_t>(order_[k])];
    const int parent = anchor_relation_[k];
    const auto parents = relations_[static_cast<size_t>(parent)];
    std::vector<ClassCounts>& parent_counts =
        counts[static_cast<size_t>(parent)];
    for (size_t i = 0; i < parents.size(); ++i) {
      ClassCounts& vec = parent_counts[i];
      // An earlier child matched nothing: no assignment through this
      // rectangle remains, so skip its probe.
      if (vec == ClassCounts{}) continue;
      ClassCounts sum{};
      if (child_counts.empty()) {
        ProbeAnchor(k, parents[i].rect, scratch,
                    [&](size_t j) { ++sum[class_of(child[j])]; });
      } else {
        ProbeAnchor(k, parents[i].rect, scratch, [&](size_t j) {
          for (size_t c = 0; c < 4; ++c) sum[c] += child_counts[j][c];
        });
      }
      ClassCounts folded{};
      for (size_t a = 0; a < 4; ++a) {
        for (size_t b = 0; b < 4; ++b) folded[a | b] += vec[a] * sum[b];
      }
      vec = folded;
    }
  }

  int64_t total = 0;
  for (const ClassCounts& vec : counts[static_cast<size_t>(order_[0])]) {
    total += vec[need_];
  }
  if (probes != nullptr) *probes = scratch.probes;
  return total;
}

}  // namespace mwsj
