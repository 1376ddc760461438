// Property test for the C-Rep round-1 marking decision: the production
// marking (one multiway local join per connected proper relation subset,
// over each member's C2-eligible rectangles) must agree with an
// exponential, literal transcription of conditions C1-C3 over every
// relation subset, disconnected ones included, on randomized reducer
// inputs: overlap, range and hybrid predicates on every world shape
// (2-, 3- and 4-chains, the 4-star and the triangle).

#include <gtest/gtest.h>

#include <algorithm>

#include "core/controlled_replicate.h"
#include "testing/world.h"

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

// Literal reference implementation of §7.4/§8/§9: a rectangle is marked
// iff SOME rectangle-set containing it satisfies C1 (consistent), C2
// (boundary-edge members cross / have a foreign cell within d) and C3 (at
// least one inside/outside condition). Enumerates every subset of
// relations and every assignment — exponential, only for tiny inputs.
class ReferenceMarker {
 public:
  ReferenceMarker(const Query& query, const GridPartition& grid, CellId cell,
                  const std::vector<std::vector<LocalRect>>& rects)
      : query_(query), grid_(grid), cell_(cell), rects_(rects) {}

  bool IsMarked(int rel, size_t idx) const {
    const int m = query_.num_relations();
    for (uint32_t subset = 1; subset < (1u << m) - 1; ++subset) {
      if ((subset & (1u << rel)) == 0) continue;
      std::vector<int> members;
      for (int r = 0; r < m; ++r) {
        if (subset & (1u << r)) members.push_back(r);
      }
      std::vector<int64_t> assignment(members.size(), -1);
      if (TryAssign(subset, members, 0, rel, static_cast<int64_t>(idx),
                    assignment)) {
        return true;
      }
    }
    return false;
  }

 private:
  bool CrossesBoundary(const Rect& r) const {
    // Paper: overlaps a partition-cell other than `cell_`. With closed
    // cells this is equivalent to extending beyond the closed cell.
    return !grid_.CellRect(cell_).Contains(r);
  }

  bool HasForeignCellWithin(const Rect& r, double d) const {
    for (CellId c = 0; c < grid_.num_cells(); ++c) {
      if (c == cell_) continue;
      if (grid_.DistanceToCell(c, r) <= d) return true;
    }
    return false;
  }

  bool SatisfiesC2(uint32_t subset, int rel, const Rect& rect) const {
    for (int ci : query_.ConditionsOf(rel)) {
      const JoinCondition& c = query_.conditions()[static_cast<size_t>(ci)];
      const int other = (c.left == rel) ? c.right : c.left;
      if (subset & (1u << other)) continue;  // Internal condition.
      if (c.predicate.is_overlap()) {
        if (!CrossesBoundary(rect)) return false;
      } else {
        if (!HasForeignCellWithin(rect, c.predicate.distance())) return false;
      }
    }
    return true;
  }

  bool Consistent(uint32_t subset, const std::vector<int>& members,
                  const std::vector<int64_t>& assignment) const {
    for (const JoinCondition& c : query_.conditions()) {
      if ((subset & (1u << c.left)) == 0 || (subset & (1u << c.right)) == 0) {
        continue;
      }
      const Rect* left = nullptr;
      const Rect* right = nullptr;
      for (size_t k = 0; k < members.size(); ++k) {
        if (members[k] == c.left && assignment[k] >= 0) {
          left = &rects_[static_cast<size_t>(c.left)]
                        [static_cast<size_t>(assignment[k])]
                            .rect;
        }
        if (members[k] == c.right && assignment[k] >= 0) {
          right = &rects_[static_cast<size_t>(c.right)]
                         [static_cast<size_t>(assignment[k])]
                             .rect;
        }
      }
      if (left && right && !c.predicate.Evaluate(*left, *right)) return false;
    }
    return true;
  }

  bool TryAssign(uint32_t subset, const std::vector<int>& members,
                 size_t depth, int fixed_rel, int64_t fixed_idx,
                 std::vector<int64_t>& assignment) const {
    if (depth == members.size()) {
      // C3: at least one inside/outside condition must exist.
      bool has_boundary_condition = false;
      for (const JoinCondition& c : query_.conditions()) {
        const bool left_in = subset & (1u << c.left);
        const bool right_in = subset & (1u << c.right);
        if (left_in != right_in) has_boundary_condition = true;
      }
      return has_boundary_condition;
    }
    const int r = members[depth];
    const auto& list = rects_[static_cast<size_t>(r)];
    for (size_t i = 0; i < list.size(); ++i) {
      if (r == fixed_rel && static_cast<int64_t>(i) != fixed_idx) continue;
      if (!SatisfiesC2(subset, r, list[i].rect)) continue;
      assignment[depth] = static_cast<int64_t>(i);
      if (Consistent(subset, members, assignment) &&
          TryAssign(subset, members, depth + 1, fixed_rel, fixed_idx,
                    assignment)) {
        return true;
      }
      assignment[depth] = -1;
    }
    return false;
  }

  const Query& query_;
  const GridPartition& grid_;
  const CellId cell_;
  const std::vector<std::vector<LocalRect>>& rects_;
};

// Checks every cell of a 3x3 grid of one randomized world against the
// reference.
void ExpectMarkingMatchesReference(testing::QueryShape shape, int mix_index,
                                   int seed) {
  testing::WorldConfig config;
  config.shape = shape;
  config.mix = static_cast<testing::PredicateMix>(mix_index);
  config.range_d = 10.0;
  config.max_rects_per_relation = 8;  // Tiny: the reference is exponential.
  config.max_dim = 45.0;
  config.seed = static_cast<uint64_t>(seed) * 131 + 7;
  const Query query = testing::MakeWorldQuery(config);
  const auto data = testing::MakeWorldData(config, query.num_relations());

  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 100, 100), 3, 3).value();

  for (CellId cell = 0; cell < grid.num_cells(); ++cell) {
    // The reducer's view after Split.
    std::vector<std::vector<LocalRect>> cell_rects(data.size());
    for (size_t r = 0; r < data.size(); ++r) {
      for (size_t i = 0; i < data[r].size(); ++i) {
        if (Overlaps(data[r][i], grid.CellRect(cell))) {
          cell_rects[r].push_back(
              LocalRect{data[r][i], static_cast<int64_t>(i)});
        }
      }
    }

    std::vector<std::vector<int64_t>> marked =
        MarkedIds(query, grid, cell, cell_rects);
    for (auto& ids : marked) std::sort(ids.begin(), ids.end());

    const ReferenceMarker reference(query, grid, cell, cell_rects);
    for (size_t r = 0; r < cell_rects.size(); ++r) {
      std::vector<int64_t> expected;
      for (size_t i = 0; i < cell_rects[r].size(); ++i) {
        if (grid.CellOfRect(cell_rects[r][i].rect) != cell) continue;
        if (reference.IsMarked(static_cast<int>(r), i)) {
          expected.push_back(cell_rects[r][i].id);
        }
      }
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(marked[r], expected)
          << "relation " << r << " at cell " << cell << " seed " << seed;
    }
  }
}

// The 3-chain world. Params: (predicate mix index, seed).
class MarkingOraclePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MarkingOraclePropertyTest, MatchesLiteralConditions) {
  ExpectMarkingMatchesReference(testing::QueryShape::kChain3,
                                std::get<0>(GetParam()),
                                std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Mixes, MarkingOraclePropertyTest,
                         ::testing::Combine(::testing::Range(0, 3),
                                            ::testing::Range(0, 10)));

// The other world shapes. Params: (QueryShape, predicate mix index, seed).
class MarkingShapePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MarkingShapePropertyTest, MatchesLiteralConditions) {
  ExpectMarkingMatchesReference(
      static_cast<testing::QueryShape>(std::get<0>(GetParam())),
      std::get<1>(GetParam()), std::get<2>(GetParam()));
}

// Only four relations have 3-relation witness subsets, and few tiny
// worlds need one to mark a rectangle, so these shapes get more seeds.
INSTANTIATE_TEST_SUITE_P(
    FourRelations, MarkingShapePropertyTest,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(testing::QueryShape::kChain4),
                          static_cast<int>(testing::QueryShape::kStar4)),
        ::testing::Range(0, 3), ::testing::Range(0, 40)));

INSTANTIATE_TEST_SUITE_P(
    SmallShapes, MarkingShapePropertyTest,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(testing::QueryShape::kCycle3),
                          static_cast<int>(testing::QueryShape::kChain2)),
        ::testing::Range(0, 3), ::testing::Range(0, 10)));

}  // namespace
}  // namespace mwsj
