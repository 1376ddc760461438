// The multiway binding recursion is the innermost loop of every reducer:
// emits are templated (no std::function per candidate) and probes reuse
// BindScratch, which keeps each probe's matches while they can be read
// again. Build-time code below may allocate; the probe paths are held
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
  order_.reserve(static_cast<size_t>(m));
  anchor_relation_.reserve(static_cast<size_t>(m));
  anchor_predicate_.reserve(static_cast<size_t>(m));
  check_conditions_.reserve(static_cast<size_t>(m));
  while (static_cast<int>(order_.size()) < m) {
    int best = -1;
    const Predicate* best_predicate = nullptr;
    int best_anchor = -1;
    for (int r = 0; r < m; ++r) {
      if (bound[static_cast<size_t>(r)]) continue;
      // One bound-connected condition suffices for the anchor; the first
      // depth needs none.
      const Predicate* predicate = nullptr;
      int anchor = -1;
      for (int ci : query_.ConditionsOf(r)) {
        const JoinCondition& c = query_.conditions()[static_cast<size_t>(ci)];
        const int other = (c.left == r) ? c.right : c.left;
        if (bound[static_cast<size_t>(other)]) {
          predicate = &c.predicate;
          anchor = other;
          break;
        }
      }
      if ((predicate != nullptr || order_.empty()) &&
          (best < 0 || relations_[static_cast<size_t>(r)].size() <
                           relations_[static_cast<size_t>(best)].size())) {
        best = r;
        best_predicate = predicate;
        best_anchor = anchor;
      }
    }
    order_.push_back(best);
    anchor_relation_.push_back(best_anchor);
    anchor_predicate_.push_back(best_predicate);
    bound[static_cast<size_t>(best)] = true;
    // Residual conditions checked at this depth: both endpoints bound, and
    // the condition is not the depth's anchor.
    check_conditions_.emplace_back();
    for (int ci : query_.ConditionsOf(best)) {
      const JoinCondition& c = query_.conditions()[static_cast<size_t>(ci)];
      const int other = (c.left == best) ? c.right : c.left;
      if (&c.predicate != best_predicate && bound[static_cast<size_t>(other)]) {
        check_conditions_.back().push_back(ci);
      }
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
    rects.clear();
    for (const LocalRect& lr : relations_[static_cast<size_t>(order_[k])]) {
      rects.push_back(lr.rect);
    }
    trees_[static_cast<size_t>(order_[k])] = std::make_unique<RTree>(rects);
  }
}

MultiwayLocalJoin::BindScratch MultiwayLocalJoin::NewScratch(
    bool tables) const {
  BindScratch scratch;
  // mwsj-check: allow(alloc-free-reach): once-per-call setup of Execute
  // and Count, not per-candidate work; the binding and the fold reuse it.
  scratch.assignment.assign(relations_.size(), nullptr);
  // mwsj-check: allow(alloc-free-reach): same once-per-call setup.
  scratch.depths.resize(order_.size());
  for (size_t k = 1; tables && k < order_.size(); ++k) {
    if (anchor_relation_[k] == order_[0]) continue;
    // mwsj-check: allow(alloc-free-reach): same once-per-call setup.
    scratch.depths[k].table.resize(
        relations_[static_cast<size_t>(anchor_relation_[k])].size());
  }
  return scratch;
}

const MultiwayLocalJoin::ClassCounts& MultiwayLocalJoin::Fold(
    size_t depth, size_t i, BindScratch& scratch,
    std::vector<std::vector<ClassCounts>>& folded) const {
  const int r = order_[depth];
  ClassCounts vec{};
  vec[Supplies(relations_[static_cast<size_t>(r)][i].rect) & need_] = 1;
  // Child depths from the deepest up; once a child matches nothing, no
  // assignment through this rectangle remains, so the others go unprobed.
  for (size_t c = order_.size(); c-- > depth + 1;) {
    if (anchor_relation_[c] != r) continue;
    if (vec == ClassCounts{}) break;
    const size_t child = static_cast<size_t>(order_[c]);
    ClassCounts sum{};
    const std::span<const int32_t> matches = Matches(c, i, scratch);
    if (folded[child].empty()) {  // A leaf adds its class.
      const auto leaves = relations_[child];
      for (int32_t j : matches) {
        ++sum[Supplies(leaves[static_cast<size_t>(j)].rect) & need_];
      }
    } else {
      const ClassCounts* vecs = folded[child].data();
      for (int32_t j : matches) {
        const ClassCounts& v = vecs[j];
        if (v[0] < 0) Fold(c, static_cast<size_t>(j), scratch, folded);
        for (size_t b = 0; b < 4; ++b) sum[b] += v[b];
      }
    }
    ClassCounts product{};
    for (size_t a = 0; a < 4; ++a) {
      for (size_t b = 0; b < 4; ++b) product[a | b] += vec[a] * sum[b];
    }
    vec = product;
  }
  return folded[static_cast<size_t>(r)][i] = vec;
}

int64_t MultiwayLocalJoin::Count(int64_t* probes) const {
  if (!query_.IsTree()) {
    int64_t emitted = 0;
    Execute([&emitted](const auto&) { ++emitted; }, probes);
    return emitted;
  }
  BindScratch scratch = NewScratch(/*tables=*/false);  // Reads each once.
  // One memoized vector per rectangle of the root and of every relation a
  // depth anchors on; entry 0 of -1 marks it not yet folded. A leaf
  // relation keeps none.
  std::vector<std::vector<ClassCounts>> folded(relations_.size());
  for (size_t k = 0; k < order_.size(); ++k) {
    const size_t parent =
        static_cast<size_t>(k == 0 ? order_[0] : anchor_relation_[k]);
    // mwsj-check: allow(alloc-free-reach): once-per-Count setup, as in
    // NewScratch; the fold below only reads and writes these vectors.
    folded[parent].assign(relations_[parent].size(), ClassCounts{-1, 0, 0, 0});
  }
  int64_t total = 0;
  for (size_t i = 0; i < folded[static_cast<size_t>(order_[0])].size(); ++i) {
    total += Fold(0, i, scratch, folded)[need_];
  }
  if (probes != nullptr) *probes = scratch.probes;
  return total;
}

}  // namespace mwsj
