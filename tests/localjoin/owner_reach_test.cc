// OwnerReach: the owner window's reach, which the join round uses to drop
// rectangles before it buckets them. Dropping what the reach rules out must
// leave the windowed local join's emit set and Count() unchanged.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "grid/grid_partition.h"
#include "localjoin/multiway.h"
#include "query/bounds.h"

namespace mwsj {
namespace {

using Relations = std::vector<std::vector<LocalRect>>;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<std::span<const LocalRect>> Spans(const Relations& relations) {
  std::vector<std::span<const LocalRect>> spans;
  for (const auto& rel : relations) spans.emplace_back(rel.data(), rel.size());
  return spans;
}

// The reach of `window` from per-relation widths and heights: the reach
// rule over each axis's extents.
OwnerReach ReachOf(const Query& query, const OwnerWindow& window,
                   const std::vector<double>& max_length,
                   const std::vector<double>& max_breadth) {
  return OwnerReach::Of(window, ComputeReplicationBounds(query, max_length),
                        ComputeReplicationBounds(query, max_breadth));
}

// The reach of `window` over `relations`, from their largest extents — the
// computation the join round's reducer makes over the records it received.
OwnerReach ReachOver(const Query& query, const OwnerWindow& window,
                     const Relations& relations) {
  std::vector<double> max_length(relations.size(), 0.0);
  std::vector<double> max_breadth(relations.size(), 0.0);
  for (size_t r = 0; r < relations.size(); ++r) {
    for (const LocalRect& lr : relations[r]) {
      max_length[r] = std::max(max_length[r], lr.rect.length());
      max_breadth[r] = std::max(max_breadth[r], lr.rect.breadth());
    }
  }
  return ReachOf(query, window, max_length, max_breadth);
}

Relations Pruned(const Query& query, const OwnerWindow& window,
                 const Relations& relations, int64_t* dropped = nullptr) {
  const OwnerReach reach = ReachOver(query, window, relations);
  Relations kept(relations.size());
  for (size_t r = 0; r < relations.size(); ++r) {
    for (const LocalRect& lr : relations[r]) {
      if (reach.Admits(static_cast<int>(r), lr.rect)) {
        kept[r].push_back(lr);
      } else if (dropped != nullptr) {
        ++*dropped;
      }
    }
  }
  return kept;
}

// The windowed Execute emit set, sorted (the binding order, and with it the
// emit order, follows the relation sizes).
std::vector<std::vector<int64_t>> EmitSet(const Query& query,
                                          const Relations& relations,
                                          const OwnerWindow& window) {
  const MultiwayLocalJoin join(query, Spans(relations), window);
  std::vector<std::vector<int64_t>> out;
  join.Execute([&out](const std::vector<const LocalRect*>& members) {
    std::vector<int64_t> ids;
    for (const LocalRect* m : members) ids.push_back(m->id);
    out.push_back(std::move(ids));
  });
  std::sort(out.begin(), out.end());
  return out;
}

Relations Numbered(const std::vector<std::vector<Rect>>& data) {
  Relations out(data.size());
  for (size_t r = 0; r < data.size(); ++r) {
    for (size_t i = 0; i < data[r].size(); ++i) {
      out[r].push_back(LocalRect{data[r][i], static_cast<int64_t>(i)});
    }
  }
  return out;
}

Query ChainQuery(const std::vector<Predicate>& predicates) {
  QueryBuilder b;
  for (size_t r = 0; r <= predicates.size(); ++r) {
    b.AddRelation("R" + std::to_string(r));
  }
  for (size_t c = 0; c < predicates.size(); ++c) {
    b.AddCondition(static_cast<int>(c), static_cast<int>(c) + 1,
                   predicates[c]);
  }
  return b.Build().value();
}

// The pruned and the full input give the same windowed emit set, and the
// same Count(); the set is non-empty.
void ExpectSameJoin(const Query& query, const Relations& full,
                    const OwnerWindow& window) {
  const Relations kept = Pruned(query, window, full);
  const auto expected = EmitSet(query, full, window);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(EmitSet(query, kept, window), expected);
  EXPECT_EQ(MultiwayLocalJoin(query, Spans(kept), window).Count(),
            MultiwayLocalJoin(query, Spans(full), window).Count());
}

// The rule at its edges, per relation: on R0 Ov R1 Ra(1.5) R2 with widths
// {2, 3, 4} and heights {1, 2, 3}, R0 and R2 reach 1.5 plus R1's extent and
// R1 reaches 1.5 (R0's overlap reaches it at 0, but R2's range condition is
// one hop away). A rectangle ending exactly at x_lo − Bx[r] or starting
// exactly at y_hi + By[r] is kept; one a unit beyond is dropped.
TEST(OwnerReachTest, BoundaryOfTheReachIsKept) {
  const Query query =
      ChainQuery({Predicate::Overlap(), Predicate::Range(1.5)});
  const OwnerWindow window{100, 50};
  const OwnerReach reach = ReachOf(query, window, {2, 3, 4}, {1, 2, 3});
  const double bx[] = {1.5 + 3, 1.5, 1.5 + 3};
  const double by[] = {1.5 + 2, 1.5, 1.5 + 2};
  for (int r = 0; r < 3; ++r) {
    SCOPED_TRACE(r);
    const size_t i = static_cast<size_t>(r);
    EXPECT_LE(reach.min_max_x[i], 100 - bx[i]);
    EXPECT_GE(reach.max_min_y[i], 50 + by[i]);
    // Outward slack stays far below any extent.
    EXPECT_GT(reach.min_max_x[i], 100 - bx[i] - 1e-3);
    EXPECT_LT(reach.max_min_y[i], 50 + by[i] + 1e-3);
    EXPECT_TRUE(reach.Admits(r, Rect(100 - bx[i] - 5, 0, 100 - bx[i], 10)));
    EXPECT_TRUE(reach.Admits(r, Rect(90, 50 + by[i], 100, 50 + by[i] + 5)));
    EXPECT_FALSE(
        reach.Admits(r, Rect(100 - bx[i] - 6, 0, 100 - bx[i] - 1, 10)));
    EXPECT_FALSE(
        reach.Admits(r, Rect(90, 50 + by[i] + 1, 100, 50 + by[i] + 6)));
    // The reach's own edges are inside it.
    EXPECT_TRUE(reach.Admits(r, Rect(reach.min_max_x[i] - 1,
                                     reach.max_min_y[i], reach.min_max_x[i],
                                     60)));
  }
}

// The per-relation bound on the chain R0 - R1 - R2 with widths {100, 1,
// 100}: R0 and R2 reach R1's width only, and R1, adjacent to both, reaches
// 0 — not the 201 that every width summed would give. A rectangle of R0
// ending at x_lo − 1 is kept and one ending a hair beyond is dropped; R1
// keeps only what ends at x_lo or right of it.
TEST(OwnerReachTest, ChainReachesOnlyTheWidthsBetween) {
  const Query query =
      ChainQuery({Predicate::Overlap(), Predicate::Overlap()});
  const OwnerWindow window{10, kInf};
  const double eps = 1e-6;
  const OwnerReach reach = ReachOf(query, window, {100, 1, 100}, {0, 0, 0});
  for (int r : {0, 2}) {
    EXPECT_TRUE(reach.Admits(r, Rect(0, 0, 10 - 1, 1)));
    EXPECT_FALSE(reach.Admits(r, Rect(0, 0, 10 - 1 - eps, 1)));
  }
  EXPECT_TRUE(reach.Admits(1, Rect(9, 0, 10, 1)));
  EXPECT_FALSE(reach.Admits(1, Rect(9, 0, 10 - eps, 1)));
}

// x uses only the widths and y only the heights: on the chain R0 - R1 - R2
// with widths {5, 2, 5} and heights {7, 3, 7}, the endpoints reach 2 in x
// and 3 in y, and the middle reaches 0 in both.
TEST(OwnerReachTest, EachAxisUsesItsOwnExtents) {
  const Query query =
      ChainQuery({Predicate::Overlap(), Predicate::Overlap()});
  const OwnerWindow window{10, 20};
  const double eps = 1e-6;
  const OwnerReach reach = ReachOf(query, window, {5, 2, 5}, {7, 3, 7});
  for (int r : {0, 2}) {
    EXPECT_TRUE(reach.Admits(r, Rect(0, 0, 8, 1)));
    EXPECT_FALSE(reach.Admits(r, Rect(0, 0, 8 - eps, 1)));
    EXPECT_TRUE(reach.Admits(r, Rect(9, 23, 11, 24)));
    EXPECT_FALSE(reach.Admits(r, Rect(9, 23 + eps, 11, 24)));
  }
  EXPECT_TRUE(reach.Admits(1, Rect(9, 20, 10, 21)));
  EXPECT_FALSE(reach.Admits(1, Rect(9, 19, 10 - eps, 20)));
  EXPECT_FALSE(reach.Admits(1, Rect(10, 20 + eps, 11, 21)));
}

// A star whose leaves are points: each leaf reaches the center's width,
// and the center, one hop from every leaf, reaches 0. Leaf L1 starts one
// ulp right of x_lo, the center spans back its full width 4, and leaf L2
// touches the center's left edge, so L2 ends at x_lo − 4 plus one ulp and
// is kept. A leaf one unit beyond and a center copy ending left of x_lo
// are dropped.
TEST(OwnerReachTest, StarLeavesReachTheCenterWidth) {
  QueryBuilder b;
  const int center = b.AddRelation("C");
  const int l1 = b.AddRelation("L1");
  const int l2 = b.AddRelation("L2");
  b.AddOverlap(center, l1).AddOverlap(center, l2);
  const Query query = b.Build().value();
  const double x = std::nextafter(10.0, kInf);
  Relations full(3);
  full[static_cast<size_t>(center)] = {{Rect(x - 4, 0, x, 2), 0},
                                       {Rect(5, 0, 9, 2), 1}};
  full[static_cast<size_t>(l1)] = {{Rect(x, 1, x, 1), 0}};
  full[static_cast<size_t>(l2)] = {{Rect(x - 4, 1, x - 4, 1), 0},
                                   {Rect(x - 5, 1, x - 5, 1), 1}};
  const OwnerWindow window{10, kInf};
  int64_t dropped = 0;
  const Relations kept = Pruned(query, window, full, &dropped);
  EXPECT_EQ(dropped, 2);
  EXPECT_EQ(kept[static_cast<size_t>(center)].size(), 1u);
  EXPECT_EQ(kept[static_cast<size_t>(l2)].size(), 1u);
  EXPECT_EQ(EmitSet(query, full, window),
            (std::vector<std::vector<int64_t>>{{0, 0, 0}}));
  ExpectSameJoin(query, full, window);
}

// A chain whose last member sits as far from the window as the hops allow:
// A starts one ulp right of x_lo, B spans back its full width, and C (a
// point) touches B's left edge — so C.max_x is x_lo − W(B) plus one ulp.
// The y side mirrors it about y_hi. A decoy one unit beyond is dropped.
TEST(OwnerReachTest, ChainReachingTheBoundaryKeepsItsTuple) {
  const Query query =
      ChainQuery({Predicate::Overlap(), Predicate::Overlap()});
  const double above_10 = std::nextafter(10.0, kInf);
  const double below_10 = std::nextafter(10.0, -kInf);
  struct Case {
    const char* name;
    OwnerWindow window;
    std::vector<std::vector<Rect>> data;
    Rect decoy;  // Relation 2, beyond the reach; a point, so W(C) stays 0.
  };
  const Case cases[] = {
      {"x",
       {10, kInf},
       {{Rect(above_10, 50, above_10, 50)},
        {Rect(above_10 - 4, 49, above_10, 51)},
        {Rect(above_10 - 4, 50, above_10 - 4, 50)}},
       Rect(4, 50, 4, 50)},
      {"y",
       {-kInf, 10},
       {{Rect(50, below_10, 50, below_10)},
        {Rect(49, below_10, 51, below_10 + 4)},
        {Rect(50, below_10 + 4, 50, below_10 + 4)}},
       Rect(50, 16, 50, 16)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Relations full = Numbered(c.data);
    full[2].push_back(LocalRect{c.decoy, 1});
    int64_t dropped = 0;
    const Relations kept = Pruned(query, c.window, full, &dropped);
    EXPECT_EQ(dropped, 1);
    EXPECT_EQ(kept[2].size(), 1u);
    EXPECT_EQ(EmitSet(query, full, c.window),
              (std::vector<std::vector<int64_t>>{{0, 0, 0}}));
    ExpectSameJoin(query, full, c.window);
  }
}

// A four-member overlap chain A - B - C - D (A and D points) found by a
// random search over doubles: D ends just past the unslacked bound
// x_lo − (W(B) + W(C)), because the widths and their sum round down. The
// relative slack keeps it.
TEST(OwnerReachTest, RoundedWidthSumsKeepTheChain) {
  const Query query = ChainQuery(
      {Predicate::Overlap(), Predicate::Overlap(), Predicate::Overlap()});
  const double x_lo = -0x1.ea3ef7cb50d54p-11;
  const double a = std::nextafter(x_lo, kInf);
  const double b0 = -0x1.8cfddc8a34d7fp-2;
  const double c0 = -0x1.8153f3339c283p+2;
  ASSERT_LT(c0, x_lo - ((a - b0) + (b0 - c0)));
  const Relations full = Numbered({{Rect(a, 0.5, a, 0.5)},
                                   {Rect(b0, 0, a, 1)},
                                   {Rect(c0, 0, b0, 1)},
                                   {Rect(c0, 0.5, c0, 0.5)}});
  const OwnerWindow window{x_lo, kInf};
  EXPECT_EQ(Pruned(query, window, full)[3].size(), 1u);
  ExpectSameJoin(query, full, window);
}

// An Ra(d) pair whose x-gap exceeds d yet passes WithinDistance, because
// the gap rounds to d: A starts a hair right of x_lo = 0 and B ends at
// exactly −d, so B.max_x + d == x_lo — a strict test would drop B.
TEST(OwnerReachTest, RangeGapRoundedToDistanceKeepsItsPair) {
  const double d = 3.0;
  const Query query = ChainQuery({Predicate::Range(d)});
  const OwnerWindow window{0, kInf};
  const Rect a(1e-300, 5, 1e-300, 5);
  const Rect b(-d, 5, -d, 5);
  ASSERT_TRUE(WithinDistance(a, b, d));
  ASSERT_LE(b.max_x() + d, window.x_lo);
  const Relations full = Numbered({{a}, {b}});
  EXPECT_EQ(Pruned(query, window, full)[1].size(), 1u);
  ExpectSameJoin(query, full, window);
}

// Point rectangles have zero extent, so only R's widths and heights widen
// the reach: containment-style P Ov R over a grid, with points on grid
// lines and corners.
TEST(OwnerReachTest, PointRelationsKeepEveryWindowedTuple) {
  const Query query = ChainQuery({Predicate::Overlap()});
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 100, 100), 4, 4).value();
  Rng rng(23);
  std::vector<std::vector<Rect>> data(2);
  for (int i = 0; i < 200; ++i) {
    // Points on grid lines and corners half the time.
    double x = rng.Uniform(0, 100);
    double y = rng.Uniform(0, 100);
    if (i % 2 == 0) x = 25.0 * static_cast<double>(rng.UniformInt(0, 4));
    if (i % 4 == 0) y = 25.0 * static_cast<double>(rng.UniformInt(0, 4));
    data[0].push_back(Rect::FromPoint(Point{x, y}));
  }
  for (int i = 0; i < 60; ++i) {
    const double l = rng.Uniform(0, 20);
    const double b = rng.Uniform(0, 20);
    data[1].push_back(Rect::FromXYLB(rng.Uniform(0, 100 - l),
                                     rng.Uniform(b, 100), l, b));
  }
  const Relations whole = Numbered(data);
  int64_t tuples = 0;
  int64_t dropped = 0;
  for (CellId cell = 0; cell < grid.num_cells(); ++cell) {
    const OwnerWindow window{grid.QuadrantXLo(cell), grid.QuadrantYHi(cell)};
    const auto expected = EmitSet(query, whole, window);
    EXPECT_EQ(EmitSet(query, Pruned(query, window, whole, &dropped), window),
              expected)
        << "cell " << cell;
    tuples += static_cast<int64_t>(expected.size());
  }
  EXPECT_GT(tuples, 0);
  EXPECT_GT(dropped, 0);
}

// An infinite window bound (first column, first row) imposes no limit, and
// neither does a limit whose path sum or window offset overflows: the
// reach keeps everything.
TEST(OwnerReachTest, InfiniteAndOverflowingBoundsKeepEverything) {
  const Query query =
      ChainQuery({Predicate::Overlap(), Predicate::Range(1e308)});
  const std::vector<double> small = {1, 1, 1};
  const Rect far_left(-1.7e308, 0, -1.6e308, 1);
  const Rect far_down(0, 1.6e308, 1, 1.7e308);

  const OwnerReach first_cell = ReachOf(query, {}, small, small);
  const OwnerReach first_row = ReachOf(query, {50, kInf}, small, small);
  const OwnerReach first_col = ReachOf(query, {-kInf, 50}, small, small);
  for (int r = 0; r < 3; ++r) {
    SCOPED_TRACE(r);
    const size_t i = static_cast<size_t>(r);
    EXPECT_EQ(first_cell.min_max_x[i], -kInf);
    EXPECT_EQ(first_cell.max_min_y[i], kInf);
    EXPECT_EQ(first_row.max_min_y[i], kInf);
    EXPECT_TRUE(std::isfinite(first_row.min_max_x[i]));
    EXPECT_EQ(first_col.min_max_x[i], -kInf);
    EXPECT_TRUE(std::isfinite(first_col.max_min_y[i]));
    EXPECT_TRUE(first_cell.Admits(r, far_left) &&
                first_cell.Admits(r, far_down));
    EXPECT_TRUE(first_row.Admits(r, far_down));
    EXPECT_TRUE(first_col.Admits(r, far_left));
  }

  // The R0–R2 path charges 1e308 plus R1's extent, which overflows to
  // +inf; R1's own bound is 1e308, finite. x_lo − Bx and y_hi + By
  // overflow for a window near ±1e308 even with finite bounds.
  const std::vector<double> huge = {1, 1.7e308, 1};
  const OwnerReach overflow = ReachOf(query, {1e300, -1e300}, huge, huge);
  for (size_t i : {size_t{0}, size_t{2}}) {
    EXPECT_EQ(overflow.min_max_x[i], -kInf);
    EXPECT_EQ(overflow.max_min_y[i], kInf);
  }
  EXPECT_TRUE(std::isfinite(overflow.min_max_x[1]));
  EXPECT_TRUE(std::isfinite(overflow.max_min_y[1]));
  const std::vector<double> large = {1e308, 1e308};
  const OwnerReach edge = OwnerReach::Of({-1e308, 1e308}, large, large);
  for (size_t i = 0; i < large.size(); ++i) {
    EXPECT_EQ(edge.min_max_x[i], -kInf);
    EXPECT_EQ(edge.max_min_y[i], kInf);
  }

  // End to end near 1e300: a three-member chain of rectangles 1e300 wide
  // and high. The prune keeps all of it, so the tuple survives.
  const Query overlaps =
      ChainQuery({Predicate::Overlap(), Predicate::Overlap()});
  const Relations full =
      Numbered({{Rect(1e300, -1e300, 1.5e308, 1e300)},
                {Rect(-1.5e308, -1.5e308, 1.1e300, 1.5e308)},
                {Rect(-1.6e308, 1e300, -1e300, 1.6e308)}});
  const OwnerWindow window{5e299, 2e300};
  EXPECT_EQ(Pruned(overlaps, window, full)[2].size(), 1u);
  ExpectSameJoin(overlaps, full, window);
}

// Random join graphs with m up to 5 — chains, stars, cycles and cliques —
// mixing overlap and range conditions, over rectangles up to a cell wide
// (points in some relations). At every cell of a 4x4 grid, on the input
// f1 routes there and on the whole input, the pruned input gives the same
// windowed emit set and Count() as the full one.
TEST(OwnerReachProperty, PruningNeverChangesTheWindowedJoin) {
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 100, 100), 4, 4).value();
  int64_t tuples = 0;
  int64_t dropped = 0;
  for (int trial = 0; trial < 48; ++trial) {
    Rng rng(7000 + static_cast<uint64_t>(trial) * 13);
    const int shape = trial % 4;  // chain, star, cycle, clique
    const int m = (shape >= 2 ? 3 : 2) + (trial / 4) % (shape >= 2 ? 3 : 4);
    std::vector<std::pair<int, int>> edges;
    for (int r = 1; r < m; ++r) edges.emplace_back(shape == 1 ? 0 : r - 1, r);
    if (shape == 2) edges.emplace_back(m - 1, 0);
    if (shape == 3) {
      edges.clear();
      for (int a = 0; a < m; ++a) {
        for (int b = a + 1; b < m; ++b) edges.emplace_back(a, b);
      }
    }
    QueryBuilder builder;
    for (int r = 0; r < m; ++r) builder.AddRelation("R" + std::to_string(r));
    for (const auto& [a, b] : edges) {
      const bool range = (trial / 2) % 3 != 0 && rng.UniformInt(0, 1) == 1;
      builder.AddCondition(a, b,
                           range ? Predicate::Range(rng.Uniform(0, 12))
                                 : Predicate::Overlap());
    }
    const Query query = builder.Build().value();

    std::vector<std::vector<Rect>> data(static_cast<size_t>(m));
    for (int r = 0; r < m; ++r) {
      const bool points = trial % 5 == r;
      const int n = static_cast<int>(rng.UniformInt(1, 22));
      for (int i = 0; i < n; ++i) {
        double l = points ? 0 : rng.Uniform(0, 25);
        double b = points ? 0 : rng.Uniform(0, 25);
        double x = rng.Uniform(0, 100 - l);
        double y = rng.Uniform(b, 100);
        if (trial % 2 == 1) {
          l = std::floor(l);
          b = std::floor(b);
          x = std::floor(x);
          y = std::ceil(y);
        }
        data[static_cast<size_t>(r)].push_back(Rect::FromXYLB(x, y, l, b));
      }
    }
    const Relations whole = Numbered(data);

    for (CellId cell = 0; cell < grid.num_cells(); ++cell) {
      const OwnerWindow window{grid.QuadrantXLo(cell), grid.QuadrantYHi(cell)};
      Relations routed(whole.size());
      for (size_t r = 0; r < whole.size(); ++r) {
        for (const LocalRect& lr : whole[r]) {
          if (grid.InFourthQuadrant(cell, grid.CellOfRect(lr.rect))) {
            routed[r].push_back(lr);
          }
        }
      }
      const Relations* const inputs[] = {&routed, &whole};
      for (const Relations* input : inputs) {
        const Relations kept = Pruned(query, window, *input, &dropped);
        const auto expected = EmitSet(query, *input, window);
        EXPECT_EQ(EmitSet(query, kept, window), expected)
            << "trial " << trial << " cell " << cell;
        EXPECT_EQ(MultiwayLocalJoin(query, Spans(kept), window).Count(),
                  static_cast<int64_t>(expected.size()))
            << "trial " << trial << " cell " << cell;
        tuples += static_cast<int64_t>(expected.size());
      }
    }
  }
  EXPECT_GT(tuples, 0);
  EXPECT_GT(dropped, 0);
}

}  // namespace
}  // namespace mwsj
