// Replays the paper's Controlled-Replicate walkthroughs:
//  * §7.7 / Figure 5 — the overlap-chain marking example on a 2x2 grid,
//    including uS_c1 = {u2, v3, v4, w1, x2}, uS_c3 = {u3}, the four output
//    tuples and the reducer that owns each;
//  * §8 / Figure 7 — the range-join marking example (v2 has no foreign
//    cell within d and is not replicated; u1 is replicated through the
//    consistent set (u1, v1) even though it cannot see w1).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "core/controlled_replicate.h"
#include "core/dedup.h"
#include "core/runner.h"
#include "localjoin/brute_force.h"
#include "query/query.h"

namespace mwsj {
namespace {

// The ids of the rectangles MarkRectanglesForCell flags, per relation in
// list order; the flags must be index-aligned with `cell_rects`.
std::vector<std::vector<int64_t>> MarkedIds(
    const Query& query, const GridPartition& grid, CellId cell,
    const std::vector<std::vector<LocalRect>>& cell_rects) {
  const std::vector<std::vector<char>> flags =
      MarkRectanglesForCell(query, grid, cell, cell_rects);
  EXPECT_EQ(flags.size(), cell_rects.size());
  std::vector<std::vector<int64_t>> ids(cell_rects.size());
  for (size_t r = 0; r < flags.size() && r < cell_rects.size(); ++r) {
    EXPECT_EQ(flags[r].size(), cell_rects[r].size()) << "relation " << r;
    for (size_t i = 0; i < flags[r].size() && i < cell_rects[r].size(); ++i) {
      if (flags[r][i] != 0) ids[r].push_back(cell_rects[r][i].id);
    }
  }
  return ids;
}

// ---------------------------------------------------------------------------
// Figure 5 fixture. Space [0,2]x[0,2] split 2x2: paper cells c1..c4 are
// ids 0..3 (row-major from top-left). Query Q1: R1 Ov R2 ∧ R2 Ov R3 ∧
// R3 Ov R4; rectangles of R1..R4 are named u, v, w, x.
class Figure5Test : public ::testing::Test {
 protected:
  Figure5Test() {
    query_ = MakeChainQuery(4, Predicate::Overlap()).value();
    grid_ = GridPartition::Create(Rect(0, 0, 2, 2), 2, 2).value();

    // R1 = u, R2 = v, R3 = w, R4 = x. Ids are vector positions.
    u_ = {
        Rect::FromXYLB(0.7, 1.9, 0.1, 0.1),    // u1: isolated, inside c1.
        Rect::FromXYLB(0.3, 1.25, 0.2, 0.2),   // u2: inside c1, meets v3.
        Rect::FromXYLB(0.45, 0.9, 0.15, 0.15)  // u3: inside c3, meets v3.
    };
    v_ = {
        Rect::FromXYLB(0.05, 1.9, 0.1, 0.05),  // v1: isolated, inside c1.
        Rect::FromXYLB(0.6, 1.18, 0.15, 0.1),  // v2: inside c1, meets w1
                                               //     but no u partner.
        Rect::FromXYLB(0.4, 1.3, 0.25, 0.6),   // v3: c1 -> c3 crosser.
        Rect::FromXYLB(0.05, 1.05, 0.2, 0.25)  // v4: c1 -> c3 crosser,
                                               //     no partners.
    };
    w_ = {
        Rect::FromXYLB(0.5, 1.2, 0.9, 0.15),  // w1: c1 -> c2 crosser.
        Rect::FromXYLB(0.85, 1.8, 0.1, 0.1)   // w2: isolated, inside c1.
    };
    x_ = {
        Rect::FromXYLB(1.2, 1.4, 0.2, 0.3),   // x1: inside c2, meets w1.
        Rect::FromXYLB(0.8, 1.3, 0.15, 0.2)   // x2: inside c1, meets w1.
    };
  }

  // Rectangles of one relation overlapping a given cell, as a reducer
  // would receive them after Split.
  std::vector<LocalRect> SplitTo(const std::vector<Rect>& relation,
                                 CellId cell) const {
    std::vector<LocalRect> out;
    for (size_t i = 0; i < relation.size(); ++i) {
      if (Overlaps(relation[i], grid_.value().CellRect(cell))) {
        out.push_back(LocalRect{relation[i], static_cast<int64_t>(i)});
      }
    }
    return out;
  }

  Query MakeQuery() const { return query_.value(); }

  StatusOr<Query> query_ = Status::Internal("uninitialized");
  StatusOr<GridPartition> grid_ = Status::Internal("uninitialized");
  std::vector<Rect> u_, v_, w_, x_;
};

TEST_F(Figure5Test, CellC1ReceivesTheEightRectanglesOfThePaper) {
  const CellId c1 = 0;
  EXPECT_EQ(SplitTo(u_, c1).size(), 2u);  // u1, u2.
  EXPECT_EQ(SplitTo(v_, c1).size(), 4u);  // v1, v2, v3, v4.
  EXPECT_EQ(SplitTo(w_, c1).size(), 2u);  // w1, w2.
  EXPECT_EQ(SplitTo(x_, c1).size(), 1u);  // x2.
}

TEST_F(Figure5Test, MarkingAtC1MatchesThePaper) {
  const CellId c1 = 0;
  const std::vector<std::vector<LocalRect>> cell_rects = {
      SplitTo(u_, c1), SplitTo(v_, c1), SplitTo(w_, c1), SplitTo(x_, c1)};
  std::vector<std::vector<int64_t>> marked =
      MarkedIds(MakeQuery(), grid_.value(), c1, cell_rects);
  for (auto& ids : marked) std::sort(ids.begin(), ids.end());

  // uS_c1 = (u2, v3, v4, w1, x2) — §7.7.
  EXPECT_EQ(marked[0], (std::vector<int64_t>{1}));        // u2.
  EXPECT_EQ(marked[1], (std::vector<int64_t>{2, 3}));     // v3, v4.
  EXPECT_EQ(marked[2], (std::vector<int64_t>{0}));        // w1.
  EXPECT_EQ(marked[3], (std::vector<int64_t>{1}));        // x2.
}

TEST_F(Figure5Test, MarkingAtC3ReplicatesOnlyU3) {
  const CellId c3 = 2;
  const std::vector<std::vector<LocalRect>> cell_rects = {
      SplitTo(u_, c3), SplitTo(v_, c3), SplitTo(w_, c3), SplitTo(x_, c3)};
  std::vector<std::vector<int64_t>> marked =
      MarkedIds(MakeQuery(), grid_.value(), c3, cell_rects);

  EXPECT_EQ(marked[0], (std::vector<int64_t>{2}));  // u3 starts in c3.
  EXPECT_TRUE(marked[1].empty());  // v3/v4 do not start in c3.
  EXPECT_TRUE(marked[2].empty());
  EXPECT_TRUE(marked[3].empty());
}

TEST_F(Figure5Test, OutputTuplesAndOwningReducersMatchThePaper) {
  // Output: (u2,v3,w1,x1)@c2, (u2,v3,w1,x2)@c1, (u3,v3,w1,x1)@c4,
  // (u3,v3,w1,x2)@c3.
  const std::vector<std::vector<Rect>> data = {u_, v_, w_, x_};
  const Query query = MakeQuery();

  const TupleBlock expected = {
      {1, 2, 0, 0}, {1, 2, 0, 1}, {2, 2, 0, 0}, {2, 2, 0, 1}};
  EXPECT_EQ(BruteForceJoin(query, data), expected);

  struct Owner {
    std::array<int64_t, 4> tuple;
    CellId cell;
  };
  const Owner owners[] = {
      {{1, 2, 0, 0}, 1},  // (u2,v3,w1,x1) at c2.
      {{1, 2, 0, 1}, 0},  // (u2,v3,w1,x2) at c1.
      {{2, 2, 0, 0}, 3},  // (u3,v3,w1,x1) at c4.
      {{2, 2, 0, 1}, 2},  // (u3,v3,w1,x2) at c3.
  };
  for (const Owner& o : owners) {
    const Rect* members[] = {&u_[static_cast<size_t>(o.tuple[0])],
                             &v_[static_cast<size_t>(o.tuple[1])],
                             &w_[static_cast<size_t>(o.tuple[2])],
                             &x_[static_cast<size_t>(o.tuple[3])]};
    for (CellId cell = 0; cell < 4; ++cell) {
      EXPECT_EQ(OwnsTuple(grid_.value(), cell, members), cell == o.cell)
          << "tuple owner mismatch at cell " << cell;
    }
  }

  // End-to-end C-Rep on the fixture produces exactly the paper's output.
  RunnerOptions options;
  options.algorithm = Algorithm::kControlledReplicate;
  options.grid_rows = 2;
  options.grid_cols = 2;
  options.space = Rect(0, 0, 2, 2);
  StatusOr<JoinRunResult> result = RunSpatialJoin(query, data, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().tuples, expected);
  // Seven rectangles are marked: uS_c1 = {u2, v3, v4, w1, x2} (the §7.7
  // walkthrough), u3 at c3 (§7.7), and x1 at c2 — the paper's walkthrough
  // does not enumerate c2, but the set (w1, x1) at c2 satisfies C1-C3
  // (w1 crosses back into c1), so C-Rep's own conditions mark x1 as well.
  EXPECT_EQ(result.value().stats.UserCounter(kCounterRectanglesReplicated),
            7);
}

// ---------------------------------------------------------------------------
// Figure 7 fixture: Q3 = R1 Ra(d) R2 ∧ R2 Ra(d) R3 with d = 0.2 on the
// same 2x2 grid.
class Figure7Test : public ::testing::Test {
 protected:
  Figure7Test() {
    query_ = MakeChainQuery(3, Predicate::Range(0.2)).value();
    grid_ = GridPartition::Create(Rect(0, 0, 2, 2), 2, 2).value();
    u_ = {Rect::FromXYLB(0.6, 1.5, 0.1, 0.1)};    // u1: 0.15 from v1.
    v_ = {Rect::FromXYLB(0.85, 1.5, 0.1, 0.1),    // v1: 0.05 from cell c2.
          Rect::FromXYLB(0.3, 1.7, 0.05, 0.05)};  // v2: deep inside c1.
    w_ = {Rect::FromXYLB(1.05, 1.5, 0.1, 0.1)};   // w1: inside c2.
  }

  StatusOr<Query> query_ = Status::Internal("uninitialized");
  StatusOr<GridPartition> grid_ = Status::Internal("uninitialized");
  std::vector<Rect> u_, v_, w_;
};

TEST_F(Figure7Test, RangeMarkingAtC1MatchesThePaper) {
  const CellId c1 = 0;
  const std::vector<std::vector<LocalRect>> cell_rects = {
      {{u_[0], 0}}, {{v_[0], 0}, {v_[1], 1}}, {}};
  const std::vector<std::vector<int64_t>> marked =
      MarkedIds(query_.value(), grid_.value(), c1, cell_rects);

  EXPECT_EQ(marked[0], (std::vector<int64_t>{0}));  // u1 replicated.
  EXPECT_EQ(marked[1], (std::vector<int64_t>{0}));  // v1 replicated, v2 not.
  EXPECT_TRUE(marked[2].empty());
}

TEST_F(Figure7Test, EndToEndRangeJoinFindsTheTriple) {
  const std::vector<std::vector<Rect>> data = {u_, v_, w_};
  const TupleBlock expected = {{0, 0, 0}};
  EXPECT_EQ(BruteForceJoin(query_.value(), data), expected);

  for (Algorithm algorithm :
       {Algorithm::kControlledReplicate,
        Algorithm::kControlledReplicateInLimit, Algorithm::kTwoWayCascade,
        Algorithm::kAllReplicate}) {
    RunnerOptions options;
    options.algorithm = algorithm;
    options.grid_rows = 2;
    options.grid_cols = 2;
    options.space = Rect(0, 0, 2, 2);
    StatusOr<JoinRunResult> result =
        RunSpatialJoin(query_.value(), data, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().tuples, expected) << AlgorithmName(algorithm);
  }
}

}  // namespace
}  // namespace mwsj
