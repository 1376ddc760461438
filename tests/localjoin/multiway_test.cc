// Multiway local join (the reducer-side kernel) vs. brute force.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/random.h"
#include "common/trace.h"
#include "core/dedup.h"
#include "core/runner.h"
#include "grid/grid_partition.h"
#include "localjoin/brute_force.h"
#include "localjoin/multiway.h"
#include "testing/world.h"

namespace mwsj {
namespace {

std::vector<IdTuple> RunLocalJoin(const Query& query,
                                  const std::vector<std::vector<Rect>>& data) {
  std::vector<std::vector<LocalRect>> local(data.size());
  for (size_t r = 0; r < data.size(); ++r) {
    for (size_t i = 0; i < data[r].size(); ++i) {
      local[r].push_back(LocalRect{data[r][i], static_cast<int64_t>(i)});
    }
  }
  std::vector<std::span<const LocalRect>> spans;
  for (const auto& rel : local) spans.emplace_back(rel.data(), rel.size());
  MultiwayLocalJoin join(query, std::move(spans));
  std::vector<IdTuple> out;
  join.Execute([&out](const std::vector<const LocalRect*>& members) {
    IdTuple ids;
    ids.reserve(members.size());
    for (const LocalRect* m : members) ids.push_back(m->id);
    out.push_back(std::move(ids));
  });
  SortTuples(&out);
  return out;
}

class MultiwayLocalJoinTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};
// Params: (shape index, seed).

TEST_P(MultiwayLocalJoinTest, MatchesBruteForce) {
  using testing::QueryShape;
  const QueryShape shapes[] = {QueryShape::kChain3, QueryShape::kChain4,
                               QueryShape::kStar4, QueryShape::kCycle3};
  testing::WorldConfig config;
  config.shape = shapes[std::get<0>(GetParam())];
  config.mix = (std::get<1>(GetParam()) % 2 == 0)
                   ? testing::PredicateMix::kOverlapOnly
                   : testing::PredicateMix::kHybrid;
  config.seed = static_cast<uint64_t>(std::get<1>(GetParam())) * 31 + 5;
  const Query query = testing::MakeWorldQuery(config);
  const auto data = testing::MakeWorldData(config, query.num_relations());

  EXPECT_EQ(RunLocalJoin(query, data), BruteForceJoin(query, data));
}

INSTANTIATE_TEST_SUITE_P(Shapes, MultiwayLocalJoinTest,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(0, 6)));

TEST(MultiwayLocalJoinEdge, EmptyRelationShortCircuits) {
  testing::WorldConfig config;
  const Query query = testing::MakeWorldQuery(config);
  auto data = testing::MakeWorldData(config, query.num_relations());
  data[2].clear();
  EXPECT_TRUE(RunLocalJoin(query, data).empty());
}

TEST(MultiwayLocalJoinEdge, ChainBindsThroughSmallestRelationFirst) {
  // Functional check that planning from a tiny relation does not change
  // results: one relation has a single rectangle.
  testing::WorldConfig config;
  config.seed = 77;
  const Query query = testing::MakeWorldQuery(config);
  auto data = testing::MakeWorldData(config, query.num_relations());
  data[1].resize(std::min<size_t>(data[1].size(), 1));
  EXPECT_EQ(RunLocalJoin(query, data), BruteForceJoin(query, data));
}

TEST(MultiwayLocalJoinProperty, MatchesBruteForceOnRandomWorlds) {
  // ~100 seeded random (query, dataset) pairs across every shape and
  // predicate mix, with relation sizes straddling one R-tree leaf so both
  // one-leaf and deeper trees are probed.
  using testing::PredicateMix;
  using testing::QueryShape;
  const QueryShape shapes[] = {QueryShape::kChain3, QueryShape::kChain4,
                               QueryShape::kStar4, QueryShape::kCycle3};
  const PredicateMix mixes[] = {PredicateMix::kOverlapOnly,
                                PredicateMix::kRangeOnly,
                                PredicateMix::kHybrid};
  for (int trial = 0; trial < 100; ++trial) {
    testing::WorldConfig config;
    config.shape = shapes[trial % 4];
    config.mix = mixes[trial % 3];
    config.seed = 5000 + static_cast<uint64_t>(trial) * 13;
    config.max_rects_per_relation = 2 + (trial * 7) % 40;
    config.integer_coords = (trial % 5 == 0);
    const Query query = testing::MakeWorldQuery(config);
    const auto data = testing::MakeWorldData(config, query.num_relations());
    EXPECT_EQ(RunLocalJoin(query, data), BruteForceJoin(query, data))
        << "trial " << trial;
  }
}

TEST(MultiwayLocalJoinPlan, EqualSizeCliqueOrderIsIndexTieBroken) {
  // On a 3-clique with equal-size relations every greedy step ties on
  // size; the plan must break ties by relation index so order_ is
  // platform-deterministic.
  QueryBuilder b;
  const int r1 = b.AddRelation("R1");
  const int r2 = b.AddRelation("R2");
  const int r3 = b.AddRelation("R3");
  b.AddOverlap(r1, r2).AddOverlap(r2, r3).AddOverlap(r3, r1);
  const Query query = b.Build().value();

  std::vector<std::vector<LocalRect>> local(3);
  for (size_t r = 0; r < 3; ++r) {
    for (int i = 0; i < 10; ++i) {
      local[r].push_back(LocalRect{
          Rect::FromXYLB(static_cast<double>(i), 1, 1, 1), i});
    }
  }
  std::vector<std::span<const LocalRect>> spans;
  for (const auto& rel : local) spans.emplace_back(rel.data(), rel.size());
  const MultiwayLocalJoin join(query, std::move(spans));
  EXPECT_EQ(join.binding_order(), (std::vector<int>{0, 1, 2}));
}

TEST(MultiwayLocalJoinEdge, TinyRelationsMatchBruteForce) {
  // At most 7 rectangles per relation: every probed relation is a
  // one-leaf R-tree.
  testing::WorldConfig config;
  config.seed = 123;
  config.max_rects_per_relation = 7;
  const Query query = testing::MakeWorldQuery(config);
  const auto data = testing::MakeWorldData(config, query.num_relations());
  EXPECT_EQ(RunLocalJoin(query, data), BruteForceJoin(query, data));
}

// The emit stream of one Execute, in emit order (not sorted), with each
// tuple's member rectangles alongside its ids.
struct Emitted {
  IdTuple ids;
  std::vector<Rect> rects;
};

std::vector<Emitted> EmitStream(
    const Query& query, const std::vector<std::vector<LocalRect>>& local,
    OwnerWindow window) {
  std::vector<std::span<const LocalRect>> spans;
  for (const auto& rel : local) spans.emplace_back(rel.data(), rel.size());
  const MultiwayLocalJoin join(query, std::move(spans), window);
  std::vector<Emitted> out;
  join.Execute([&out](const std::vector<const LocalRect*>& members) {
    Emitted e;
    for (const LocalRect* m : members) {
      e.ids.push_back(m->id);
      e.rects.push_back(m->rect);
    }
    out.push_back(std::move(e));
  });
  return out;
}

std::vector<IdTuple> IdsWhere(const std::vector<Emitted>& stream,
                              const auto& keep) {
  std::vector<IdTuple> out;
  for (const Emitted& e : stream) {
    std::vector<const Rect*> members;
    for (const Rect& r : e.rects) members.push_back(&r);
    if (keep(std::span<const Rect* const>(members))) out.push_back(e.ids);
  }
  return out;
}

// Moves coordinates lying within 6 units of a grid line onto the line or
// one ulp either side of it, so the window's edges see ties and
// near-ties on every axis.
void SnapToGridLines(const GridPartition& grid, uint64_t seed,
                     std::vector<std::vector<Rect>>* data) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> x_lines;
  std::vector<double> y_lines;
  for (int col = 0; col < grid.cols(); ++col) {
    x_lines.push_back(grid.CellRect(grid.CellIdOf(0, col)).min_x());
  }
  x_lines.push_back(grid.space().max_x());
  for (int row = 0; row < grid.rows(); ++row) {
    y_lines.push_back(grid.CellRect(grid.CellIdOf(row, 0)).min_y());
  }
  y_lines.push_back(grid.space().max_y());
  Rng rng(seed);
  auto snap = [&rng, inf](double v, const std::vector<double>& lines) {
    for (double line : lines) {
      if (std::abs(v - line) < 6) {
        const double choices[] = {std::nextafter(line, -inf), line,
                                  std::nextafter(line, inf)};
        return choices[rng.UniformInt(0, 2)];
      }
    }
    return v;
  };
  for (auto& relation : *data) {
    for (Rect& r : relation) {
      const double x0 = snap(r.min_x(), x_lines);
      const double y0 = snap(r.min_y(), y_lines);
      const double x1 = snap(r.max_x(), x_lines);
      const double y1 = snap(r.max_y(), y_lines);
      r = Rect(std::min(x0, x1), std::min(y0, y1), std::max(x0, x1),
               std::max(y0, y1));
    }
  }
}

// Every cell of a 4x4 grid over the world's space, for random worlds:
//  * with the cell's f1-routed input (members start in or up-left of the
//    cell, as in every join round), the windowed stream is exactly the
//    unwindowed stream filtered by OwnsTuple — element by element, in
//    order;
//  * with the whole, unrouted input, the windowed stream is exactly the
//    unwindowed stream filtered by the window's own two tests;
//  * the infinite window (cell 0) emits the unwindowed stream unchanged.
// Every non-integer world has its coordinates snapped onto the grid lines.
TEST(MultiwayLocalJoinWindow, EmitsExactlyTheOwnedSubsequence) {
  using testing::PredicateMix;
  using testing::QueryShape;
  const QueryShape shapes[] = {QueryShape::kChain3, QueryShape::kChain4,
                               QueryShape::kStar4, QueryShape::kCycle3};
  const PredicateMix mixes[] = {PredicateMix::kOverlapOnly,
                                PredicateMix::kRangeOnly,
                                PredicateMix::kHybrid};
  int64_t owned_total = 0;
  for (int trial = 0; trial < 60; ++trial) {
    testing::WorldConfig config;
    config.shape = shapes[trial % 4];
    config.mix = mixes[trial % 3];
    config.seed = 9100 + static_cast<uint64_t>(trial) * 7;
    // Small worlds keep every relation within one R-tree leaf; the others
    // mix one-leaf and deeper trees per cell.
    config.max_rects_per_relation = (trial % 4 == 3) ? 6 : 10 + trial % 30;
    config.integer_coords = (trial % 2 == 0);
    // d*d overflows: the R-tree's scalar huge-distance traversal.
    if (trial % 10 == 7) config.range_d = 1e200;
    const Query query = testing::MakeWorldQuery(config);
    auto data = testing::MakeWorldData(config, query.num_relations());
    const GridPartition grid =
        GridPartition::Create(
            Rect(0, 0, config.space_size, config.space_size), 4, 4)
            .value();
    if (trial % 2 == 1) SnapToGridLines(grid, config.seed, &data);

    std::vector<std::vector<LocalRect>> whole(data.size());
    for (size_t r = 0; r < data.size(); ++r) {
      for (size_t i = 0; i < data[r].size(); ++i) {
        whole[r].push_back(LocalRect{data[r][i], static_cast<int64_t>(i)});
      }
    }
    const std::vector<Emitted> whole_stream =
        EmitStream(query, whole, OwnerWindow{});

    for (CellId cell = 0; cell < grid.num_cells(); ++cell) {
      const OwnerWindow window{grid.QuadrantXLo(cell), grid.QuadrantYHi(cell)};
      auto in_window = [&window](std::span<const Rect* const> members) {
        bool x = false;
        bool y = false;
        for (const Rect* m : members) {
          x = x || m->min_x() > window.x_lo;
          y = y || m->max_y() < window.y_hi;
        }
        return x && y;
      };
      auto owned = [&grid, cell](std::span<const Rect* const> members) {
        return OwnsTuple(grid, cell, members);
      };
      auto all = [](std::span<const Rect* const>) { return true; };
      const std::vector<IdTuple> windowed_whole =
          IdsWhere(EmitStream(query, whole, window), all);
      EXPECT_EQ(windowed_whole, IdsWhere(whole_stream, in_window))
          << "trial " << trial << " cell " << cell << " (unrouted)";
      if (cell == 0) {
        // The top-left cell's window is (−∞, +∞): nothing is pruned.
        EXPECT_EQ(windowed_whole, IdsWhere(whole_stream, all))
            << "trial " << trial;
      }

      std::vector<std::vector<LocalRect>> routed(data.size());
      for (size_t r = 0; r < data.size(); ++r) {
        for (const LocalRect& lr : whole[r]) {
          if (grid.InFourthQuadrant(cell, grid.CellOfRect(lr.rect))) {
            routed[r].push_back(lr);
          }
        }
      }
      const std::vector<IdTuple> expected =
          IdsWhere(EmitStream(query, routed, OwnerWindow{}), owned);
      EXPECT_EQ(IdsWhere(EmitStream(query, routed, window), all), expected)
          << "trial " << trial << " cell " << cell << " (routed)";
      owned_total += static_cast<int64_t>(expected.size());
    }
  }
  EXPECT_GT(owned_total, 0);
}

// Directed edge cases for the overlap probe clip: the only partner of
// the anchor lies one ulp inside a window half-plane, so a clip one ulp
// too eager loses the tuple. Each case runs with the partner relation
// alone (a one-leaf tree) and padded past one leaf (a two-level tree).
TEST(MultiwayLocalJoinWindow, KeepsPartnersOneUlpInsideTheWindow) {
  const double inf = std::numeric_limits<double>::infinity();
  const double above_25 = std::nextafter(25.0, inf);
  const double below_25 = std::nextafter(25.0, -inf);
  struct Case {
    const char* name;
    OwnerWindow window;
    Rect anchor;   // Passes no window test.
    Rect partner;  // Passes the outstanding one.
  };
  const Case cases[] = {
      {"x", {25, inf}, Rect(20, 10, 30, 20), Rect(above_25, 12, above_25, 18)},
      {"y", {-inf, 25}, Rect(10, 20, 20, 30), Rect(12, below_25, 18, below_25)},
  };
  for (const Case& c : cases) {
    QueryBuilder b;
    b.AddRelation("A");
    b.AddRelation("B");
    b.AddCondition(0, 1, Predicate::Overlap());
    const Query q = b.Build().value();
    for (int pad : {0, 16}) {
      // The anchor relation stays smallest, so it binds first and the
      // partner's depth must supply the outstanding test.
      std::vector<std::vector<LocalRect>> local = {{{c.anchor, 0}},
                                                   {{c.partner, 0}}};
      for (int i = 1; i <= pad; ++i) {
        local[1].push_back(LocalRect{Rect(90, 90, 91, 91), i});
      }
      std::vector<std::span<const LocalRect>> spans;
      for (const auto& rel : local) spans.emplace_back(rel.data(), rel.size());
      const MultiwayLocalJoin join(q, std::move(spans), c.window);
      ASSERT_EQ(join.binding_order(), (std::vector<int>{0, 1}));
      std::vector<IdTuple> out;
      join.Execute([&out](const std::vector<const LocalRect*>& members) {
        out.push_back({members[0]->id, members[1]->id});
      });
      EXPECT_EQ(out, (std::vector<IdTuple>{{0, 0}}))
          << c.name << " pad " << pad;
    }
  }
}

// The number of tuples Execute emits that `keep` accepts.
int64_t EmitCount(const MultiwayLocalJoin& join, const auto& keep) {
  int64_t n = 0;
  std::vector<const Rect*> rects;
  join.Execute([&](const std::vector<const LocalRect*>& members) {
    rects.clear();
    for (const LocalRect* m : members) rects.push_back(&m->rect);
    if (keep(std::span<const Rect* const>(rects))) ++n;
  });
  return n;
}

std::vector<std::span<const LocalRect>> Spans(
    const std::vector<std::vector<LocalRect>>& local) {
  std::vector<std::span<const LocalRect>> spans;
  for (const auto& rel : local) spans.emplace_back(rel.data(), rel.size());
  return spans;
}

// Random tree-shaped worlds, every cell of a uniform and an equi-depth
// 4x4 grid, each cell's contents routed up-left (members start in or
// up-left of the cell, as in every join round):
//  * Count() == the number Execute emits under the cell's window == the
//    number of the unwindowed emits OwnsTuple assigns to the cell;
//  * on the whole, unrouted input, Count() == the windowed emit count.
// Worlds cover one-leaf relations, a huge distance (the R-tree's scalar
// traversal), and coordinates snapped onto the grid lines.
TEST(MultiwayLocalJoinCount, MatchesWindowedAndOwnedEmitsPerCell) {
  using testing::PredicateMix;
  using testing::QueryShape;
  const QueryShape shapes[] = {QueryShape::kChain2, QueryShape::kChain3,
                               QueryShape::kChain4, QueryShape::kStar4};
  const PredicateMix mixes[] = {PredicateMix::kOverlapOnly,
                                PredicateMix::kRangeOnly,
                                PredicateMix::kHybrid};
  auto all = [](std::span<const Rect* const>) { return true; };
  int64_t counted_total = 0;
  for (int trial = 0; trial < 72; ++trial) {
    testing::WorldConfig config;
    config.shape = shapes[trial % 4];
    config.mix = mixes[trial % 3];
    config.seed = 7300 + static_cast<uint64_t>(trial) * 11;
    config.max_rects_per_relation = (trial % 5 == 4) ? 6 : 10 + trial % 30;
    config.integer_coords = (trial % 2 == 0);
    if (trial % 12 == 7) config.range_d = 1e200;  // d*d overflows.
    const Query query = testing::MakeWorldQuery(config);
    ASSERT_TRUE(query.IsTree());
    const auto data = testing::MakeWorldData(config, query.num_relations());
    const Rect space(0, 0, config.space_size, config.space_size);
    std::vector<Rect> sample;
    for (const auto& relation : data) {
      sample.insert(sample.end(), relation.begin(), relation.end());
    }
    const GridPartition grids[] = {
        GridPartition::Create(space, 4, 4).value(),
        GridPartition::CreateEquiDepth(space, 4, 4, sample).value()};
    for (const GridPartition& grid : grids) {
      auto world = data;
      if (trial % 2 == 1) SnapToGridLines(grid, config.seed, &world);
      std::vector<std::vector<LocalRect>> whole(world.size());
      for (size_t r = 0; r < world.size(); ++r) {
        for (size_t i = 0; i < world[r].size(); ++i) {
          whole[r].push_back(LocalRect{world[r][i], static_cast<int64_t>(i)});
        }
      }
      for (CellId cell = 0; cell < grid.num_cells(); ++cell) {
        const OwnerWindow window{grid.QuadrantXLo(cell),
                                 grid.QuadrantYHi(cell)};
        const MultiwayLocalJoin unrouted(query, Spans(whole), window);
        EXPECT_EQ(unrouted.Count(), EmitCount(unrouted, all))
            << "trial " << trial << " cell " << cell << " (unrouted)";

        std::vector<std::vector<LocalRect>> routed(world.size());
        for (size_t r = 0; r < world.size(); ++r) {
          for (const LocalRect& lr : whole[r]) {
            if (grid.InFourthQuadrant(cell, grid.CellOfRect(lr.rect))) {
              routed[r].push_back(lr);
            }
          }
        }
        const MultiwayLocalJoin windowed(query, Spans(routed), window);
        const MultiwayLocalJoin plain(query, Spans(routed));
        const int64_t owned =
            EmitCount(plain, [&grid, cell](std::span<const Rect* const> m) {
              return OwnsTuple(grid, cell, m);
            });
        EXPECT_EQ(EmitCount(windowed, all), owned)
            << "trial " << trial << " cell " << cell;
        EXPECT_EQ(windowed.Count(), owned)
            << "trial " << trial << " cell " << cell;
        counted_total += owned;
      }
    }
  }
  EXPECT_GT(counted_total, 0);
}

// Count and Execute issue their anchor probes through one helper and
// report them; an empty relation short-circuits both.
TEST(MultiwayLocalJoinCount, ReportsProbesAndShortCircuitsEmptyRelations) {
  testing::WorldConfig config;
  config.seed = 41;
  const Query query = testing::MakeWorldQuery(config);  // kChain3.
  auto data = testing::MakeWorldData(config, query.num_relations());
  std::vector<std::vector<LocalRect>> local(data.size());
  for (size_t r = 0; r < data.size(); ++r) {
    for (size_t i = 0; i < data[r].size(); ++i) {
      local[r].push_back(LocalRect{data[r][i], static_cast<int64_t>(i)});
    }
  }
  const MultiwayLocalJoin join(query, Spans(local));
  int64_t count_probes = -1;
  int64_t exec_probes = -1;
  int64_t emitted = 0;
  join.Execute([&emitted](const std::vector<const LocalRect*>&) { ++emitted; },
               &exec_probes);
  EXPECT_EQ(join.Count(&count_probes), emitted);
  EXPECT_GT(emitted, 0);
  EXPECT_GT(count_probes, 0);
  EXPECT_GT(exec_probes, 0);

  local[1].clear();
  const MultiwayLocalJoin empty(query, Spans(local));
  EXPECT_EQ(empty.Count(&count_probes), 0);
  EXPECT_EQ(count_probes, 0);
}

// The join round picks its path by the query's shape: a counted kCycle3
// join keeps enumerating (the count path would ignore the closing
// condition), while a counted chain takes the factorized count. The
// `local_join` spans name the path each reduce call took.
TEST(MultiwayLocalJoinCount, CyclicQueriesNeverTakeTheCountPath) {
  using testing::QueryShape;
  for (QueryShape shape : {QueryShape::kCycle3, QueryShape::kChain3}) {
    testing::WorldConfig config;
    config.shape = shape;
    config.seed = 17;
    const Query query = testing::MakeWorldQuery(config);
    const auto data = testing::MakeWorldData(config, query.num_relations());
    const bool tree = shape != QueryShape::kCycle3;
    EXPECT_EQ(query.IsTree(), tree);
    for (Algorithm algorithm :
         {Algorithm::kAllReplicate, Algorithm::kControlledReplicate,
          Algorithm::kControlledReplicateInLimit}) {
      Tracer tracer;
      RunnerOptions options;
      options.algorithm = algorithm;
      options.grid_rows = 3;
      options.grid_cols = 3;
      options.space = Rect(0, 0, config.space_size, config.space_size);
      options.count_only = true;
      options.context = ExecutionContext(nullptr, &tracer);
      const StatusOr<JoinRunResult> result =
          RunSpatialJoin(query, data, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result.value().num_tuples,
                static_cast<int64_t>(BruteForceJoin(query, data).size()))
          << AlgorithmName(algorithm);
      const std::string json = tracer.ToJson();
      EXPECT_EQ(json.find("\"path\": \"count\"") != std::string::npos, tree)
          << AlgorithmName(algorithm);
      EXPECT_EQ(json.find("\"path\": \"enumerate\"") != std::string::npos,
                !tree)
          << AlgorithmName(algorithm);
    }
  }
}

TEST(BruteForceTest, TinyHandComputedCase) {
  const Query q = MakeChainQuery(3, Predicate::Overlap()).value();
  const std::vector<std::vector<Rect>> data = {
      {Rect::FromXYLB(0, 2, 2, 2)},                           // a0
      {Rect::FromXYLB(1, 2, 2, 2), Rect::FromXYLB(9, 2, 1, 1)},  // b0, b1
      {Rect::FromXYLB(2.5, 2, 2, 2)},                         // c0
  };
  // a0-b0 overlap; b0-c0 overlap; b1 matches nothing.
  EXPECT_EQ(BruteForceJoin(q, data), (std::vector<IdTuple>{{0, 0, 0}}));
}

TEST(SortTuplesTest, LexicographicOrder) {
  std::vector<IdTuple> tuples = {{2, 1}, {1, 5}, {1, 2}};
  SortTuples(&tuples);
  EXPECT_EQ(tuples, (std::vector<IdTuple>{{1, 2}, {1, 5}, {2, 1}}));
}

}  // namespace
}  // namespace mwsj
