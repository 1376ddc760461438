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

namespace mwsj {
namespace {

using Relations = std::vector<std::vector<LocalRect>>;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<std::span<const LocalRect>> Spans(const Relations& relations) {
  std::vector<std::span<const LocalRect>> spans;
  for (const auto& rel : relations) spans.emplace_back(rel.data(), rel.size());
  return spans;
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
  return OwnerReach::Of(query, window, max_length, max_breadth);
}

Relations Pruned(const Query& query, const OwnerWindow& window,
                 const Relations& relations, int64_t* dropped = nullptr) {
  const OwnerReach reach = ReachOver(query, window, relations);
  Relations kept(relations.size());
  for (size_t r = 0; r < relations.size(); ++r) {
    for (const LocalRect& lr : relations[r]) {
      if (reach.Admits(lr.rect)) {
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
// same Count() on tree queries; the set is non-empty.
void ExpectSameJoin(const Query& query, const Relations& full,
                    const OwnerWindow& window) {
  const Relations kept = Pruned(query, window, full);
  const auto expected = EmitSet(query, full, window);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(EmitSet(query, kept, window), expected);
  if (query.IsTree()) {
    EXPECT_EQ(MultiwayLocalJoin(query, Spans(kept), window).Count(),
              MultiwayLocalJoin(query, Spans(full), window).Count());
  }
}

// The rule at its edges: a rectangle ending exactly at x_lo − Bx or
// starting exactly at y_hi + By is kept; one a unit beyond is dropped.
TEST(OwnerReachTest, BoundaryOfTheReachIsKept) {
  const Query query =
      ChainQuery({Predicate::Overlap(), Predicate::Range(1.5)});
  const OwnerWindow window{100, 50};
  const std::vector<double> lengths = {2, 3, 4};
  const std::vector<double> breadths = {1, 2, 3};
  const OwnerReach reach = OwnerReach::Of(query, window, lengths, breadths);
  const double bx = 2 + 3 + 4 + 1.5;
  const double by = 1 + 2 + 3 + 1.5;
  EXPECT_LE(reach.min_max_x, 100 - bx);
  EXPECT_GE(reach.max_min_y, 50 + by);
  // Outward slack stays far below any extent.
  EXPECT_GT(reach.min_max_x, 100 - bx - 1e-3);
  EXPECT_LT(reach.max_min_y, 50 + by + 1e-3);
  EXPECT_TRUE(reach.Admits(Rect(100 - bx - 5, 0, 100 - bx, 10)));
  EXPECT_TRUE(reach.Admits(Rect(90, 50 + by, 100, 50 + by + 5)));
  EXPECT_FALSE(reach.Admits(Rect(100 - bx - 6, 0, 100 - bx - 1, 10)));
  EXPECT_FALSE(reach.Admits(Rect(90, 50 + by + 1, 100, 50 + by + 6)));
  // The reach's own edges are inside it.
  EXPECT_TRUE(reach.Admits(
      Rect(reach.min_max_x - 1, reach.max_min_y, reach.min_max_x, 60)));
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

// Ra(d) pairs whose x-gap exceeds d yet pass WithinDistance:
//  * the gap rounds to d: A starts a hair right of x_lo = 0 and B ends at
//    exactly −d, so B.max_x + d == x_lo — a strict test would drop B;
//  * d*d and gap*gap both underflow to zero: a gap of 1e-163 passes
//    Ra(1e-170), and B ends far below x_lo − d.
TEST(OwnerReachTest, RangeGapRoundedToDistanceKeepsItsPair) {
  struct Case {
    const char* name;
    double d;
    double b_max_x;
  };
  const Case cases[] = {{"gap rounds to d", 3.0, -3.0},
                        {"squares underflow", 1e-170, -1e-163}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Query query = ChainQuery({Predicate::Range(c.d)});
    const OwnerWindow window{0, kInf};
    const Rect a(1e-300, 5, 1e-300, 5);
    const Rect b(c.b_max_x, 5, c.b_max_x, 5);
    ASSERT_TRUE(WithinDistance(a, b, c.d));
    ASSERT_LE(b.max_x() + c.d, window.x_lo);
    const Relations full = Numbered({{a}, {b}});
    EXPECT_EQ(Pruned(query, window, full)[1].size(), 1u);
    ExpectSameJoin(query, full, window);
  }
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
// neither does a bound whose sums overflow: the reach keeps everything.
TEST(OwnerReachTest, InfiniteAndOverflowingBoundsKeepEverything) {
  const Query query =
      ChainQuery({Predicate::Overlap(), Predicate::Range(1e300)});
  const std::vector<double> small = {1, 1, 1};
  const std::vector<double> huge = {1.5e308, 1.5e308, 1e300};
  const Rect far_left(-1.7e308, 0, -1.6e308, 1);
  const Rect far_down(0, 1.6e308, 1, 1.7e308);

  const OwnerReach first_cell = OwnerReach::Of(query, {}, small, small);
  const OwnerReach first_row = OwnerReach::Of(query, {50, kInf}, small, small);
  const OwnerReach first_col =
      OwnerReach::Of(query, {-kInf, 50}, small, small);
  EXPECT_EQ(first_cell.min_max_x, -kInf);
  EXPECT_EQ(first_cell.max_min_y, kInf);
  EXPECT_EQ(first_row.max_min_y, kInf);
  EXPECT_TRUE(std::isfinite(first_row.min_max_x));
  EXPECT_EQ(first_col.min_max_x, -kInf);
  EXPECT_TRUE(std::isfinite(first_col.max_min_y));
  EXPECT_TRUE(first_cell.Admits(far_left) && first_cell.Admits(far_down));
  EXPECT_TRUE(first_row.Admits(far_down));
  EXPECT_TRUE(first_col.Admits(far_left));

  // Σ widths overflows to +inf; x_lo − Bx and y_hi + By overflow for a
  // window near ±1e308 even with finite sums.
  const OwnerReach overflow = OwnerReach::Of(query, {1e300, -1e300}, huge,
                                             huge);
  EXPECT_EQ(overflow.min_max_x, -kInf);
  EXPECT_EQ(overflow.max_min_y, kInf);
  const std::vector<double> large = {5e307, 5e307, 0};
  const OwnerReach edge =
      OwnerReach::Of(query, {-1e308, 1e308}, large, large);
  EXPECT_EQ(edge.min_max_x, -kInf);
  EXPECT_EQ(edge.max_min_y, kInf);

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
        if (query.IsTree()) {
          EXPECT_EQ(MultiwayLocalJoin(query, Spans(kept), window).Count(),
                    static_cast<int64_t>(expected.size()))
              << "trial " << trial << " cell " << cell;
        }
        tuples += static_cast<int64_t>(expected.size());
      }
    }
  }
  EXPECT_GT(tuples, 0);
  EXPECT_GT(dropped, 0);
}

}  // namespace
}  // namespace mwsj
