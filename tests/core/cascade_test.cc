// The 2-way spatial join of §5, run as a one-step Cascade on a 2-relation
// query, against nested-loop references. Cascade's single step is exactly
// that job: the tuple (left) side is routed by Split, or by EnlargedSplit
// under a range anchor, and the incoming (right) side is Split.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "core/cascade.h"

namespace mwsj {
namespace {

std::vector<Rect> RandomRects(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Rect> out;
  for (int i = 0; i < n; ++i) {
    const double l = rng.Uniform(0, 15);
    const double b = rng.Uniform(0, 15);
    out.push_back(
        Rect::FromXYLB(rng.Uniform(0, 100 - l), rng.Uniform(b, 100), l, b));
  }
  return out;
}

Query TwoWayQuery(const Predicate& predicate) {
  QueryBuilder b;
  const int left = b.AddRelation("L");
  const int right = b.AddRelation("R");
  b.AddCondition(left, right, predicate);
  return b.Build().value();
}

JoinRunResult TwoWayCascade(const std::vector<Rect>& left,
                            const std::vector<Rect>& right,
                            const Predicate& predicate, int rows, int cols) {
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 100, 100), rows, cols).value();
  return CascadeJoin(TwoWayQuery(predicate), grid, {left, right}).value();
}

std::vector<IdTuple> Reference(const std::vector<Rect>& left,
                               const std::vector<Rect>& right,
                               const Predicate& pred) {
  std::vector<IdTuple> out;
  for (size_t i = 0; i < left.size(); ++i) {
    for (size_t j = 0; j < right.size(); ++j) {
      if (pred.Evaluate(left[i], right[j])) {
        out.push_back({static_cast<int64_t>(i), static_cast<int64_t>(j)});
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The output is sorted, so a duplicate would sit next to its twin.
bool DuplicateFree(const std::vector<IdTuple>& tuples) {
  return std::adjacent_find(tuples.begin(), tuples.end()) == tuples.end();
}

class TwoWayJoinTest : public ::testing::TestWithParam<int> {};

TEST_P(TwoWayJoinTest, OverlapJoinIsExactAndDuplicateFree) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  const auto left = RandomRects(150, seed * 5 + 1);
  const auto right = RandomRects(130, seed * 5 + 2);
  const auto result = TwoWayCascade(left, right, Predicate::Overlap(), 4, 4);
  EXPECT_EQ(result.tuples, Reference(left, right, Predicate::Overlap()));
  EXPECT_TRUE(DuplicateFree(result.tuples));  // §5.2 rule.
}

TEST_P(TwoWayJoinTest, RangeJoinIsExactAndDuplicateFree) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  const auto left = RandomRects(120, seed * 7 + 1);
  const auto right = RandomRects(120, seed * 7 + 2);
  const Predicate pred = Predicate::Range(9.0);
  const auto result = TwoWayCascade(left, right, pred, 5, 3);
  EXPECT_EQ(result.tuples, Reference(left, right, pred));
  EXPECT_TRUE(DuplicateFree(result.tuples));  // §5.3 rule.
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoWayJoinTest, ::testing::Range(0, 8));

TEST(TwoWayJoinStatsTest, SplitSplitCommunicationIsCounted) {
  const std::vector<Rect> left = {Rect::FromXYLB(10, 90, 30, 5)};  // 2 cols.
  const std::vector<Rect> right = {Rect::FromXYLB(12, 88, 2, 2)};  // 1 cell.
  const auto result = TwoWayCascade(left, right, Predicate::Overlap(), 4, 4);
  EXPECT_EQ(result.tuples.size(), 1u);
  ASSERT_EQ(result.stats.jobs.size(), 1u);
  // left splits to cells (0,0) and (0,1); right to (0,0): 3 records.
  EXPECT_EQ(result.stats.jobs[0].intermediate_records, 3);
  EXPECT_EQ(result.stats.jobs[0].map_input_records, 2);
}

TEST(TwoWayJoinStatsTest, RangeRoutingEnlargesOnlyTheLeftSide) {
  // A left rectangle near a cell corner is shipped to the neighbors within
  // d, the right one is only split.
  const std::vector<Rect> left = {Rect::FromXYLB(20, 80, 2, 2)};
  const std::vector<Rect> right = {Rect::FromXYLB(30, 70, 2, 2)};
  const auto result = TwoWayCascade(left, right, Predicate::Range(5.0), 4, 4);
  ASSERT_EQ(result.stats.jobs.size(), 1u);
  // left^e(5) = [15,27]x[73,85] overlaps 4 cells; right 1 cell.
  EXPECT_EQ(result.stats.jobs[0].intermediate_records, 5);
  EXPECT_TRUE(result.tuples.empty());  // Distance ~ 10.6 > 5.
}

TEST(TwoWayJoinTest, EmptyInputs) {
  EXPECT_TRUE(TwoWayCascade({}, {}, Predicate::Overlap(), 2, 2).tuples.empty());
}

}  // namespace
}  // namespace mwsj
