// C-Rep-L replication bounds: must reproduce the paper's §7.9 and §8
// chain formulas and generalize to arbitrary graphs.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "query/bounds.h"

namespace mwsj {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

TEST(BoundsTest, OverlapChainOfFourMatchesSection79) {
  // Q1: endpoints replicate within 2*d_max, middle relations within d_max.
  const Query q = MakeChainQuery(4, Predicate::Overlap()).value();
  const double dmax = 10;
  const auto bounds = ComputeReplicationBounds(q, dmax);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 2 * dmax);
  EXPECT_DOUBLE_EQ(bounds[1], dmax);
  EXPECT_DOUBLE_EQ(bounds[2], dmax);
  EXPECT_DOUBLE_EQ(bounds[3], 2 * dmax);
}

TEST(BoundsTest, RangeChainOfFourMatchesSection8) {
  // Figure 8: R1/R4 within 2*d_max + 3*d; R2/R3 within d_max + 2*d.
  const double d = 7;
  const double dmax = 10;
  const Query q = MakeChainQuery(4, Predicate::Range(d)).value();
  const auto bounds = ComputeReplicationBounds(q, dmax);
  EXPECT_DOUBLE_EQ(bounds[0], 2 * dmax + 3 * d);
  EXPECT_DOUBLE_EQ(bounds[1], dmax + 2 * d);
  EXPECT_DOUBLE_EQ(bounds[2], dmax + 2 * d);
  EXPECT_DOUBLE_EQ(bounds[3], 2 * dmax + 3 * d);
}

TEST(BoundsTest, TwoWayOverlapNeedsNoExtent) {
  const Query q = MakeChainQuery(2, Predicate::Overlap()).value();
  const auto bounds = ComputeReplicationBounds(q, 10.0);
  EXPECT_DOUBLE_EQ(bounds[0], 0);
  EXPECT_DOUBLE_EQ(bounds[1], 0);
}

TEST(BoundsTest, TwoWayRangeNeedsExactlyD) {
  const Query q = MakeChainQuery(2, Predicate::Range(42)).value();
  const auto bounds = ComputeReplicationBounds(q, 10.0);
  EXPECT_DOUBLE_EQ(bounds[0], 42);
  EXPECT_DOUBLE_EQ(bounds[1], 42);
}

TEST(BoundsTest, StarCenterIsCheaperThanLeaves) {
  QueryBuilder b;
  const int center = b.AddRelation("C");
  const int l1 = b.AddRelation("L1");
  const int l2 = b.AddRelation("L2");
  const int l3 = b.AddRelation("L3");
  b.AddOverlap(center, l1).AddOverlap(center, l2).AddOverlap(center, l3);
  const Query q = b.Build().value();
  const double dmax = 10;
  const auto bounds = ComputeReplicationBounds(q, dmax);
  // Center reaches any leaf in one hop: no intermediate rectangle.
  EXPECT_DOUBLE_EQ(bounds[static_cast<size_t>(center)], 0);
  // Leaves reach each other through the center: one intermediate.
  EXPECT_DOUBLE_EQ(bounds[static_cast<size_t>(l1)], dmax);
}

TEST(BoundsTest, CycleUsesShortestPath) {
  QueryBuilder b;
  const int r1 = b.AddRelation("R1");
  const int r2 = b.AddRelation("R2");
  const int r3 = b.AddRelation("R3");
  b.AddRange(r1, r2, 5).AddRange(r2, r3, 5).AddRange(r3, r1, 5);
  const Query q = b.Build().value();
  const auto bounds = ComputeReplicationBounds(q, 10.0);
  // Every pair is adjacent: one hop, no intermediates.
  for (double bound : bounds) EXPECT_DOUBLE_EQ(bound, 5);
}

TEST(BoundsTest, PerRelationDiagonalsTightenTheBound) {
  // Chain R1 - R2 - R3 where R2's rectangles are tiny: the endpoint bound
  // uses R2's diagonal, not the global maximum.
  const Query q = MakeChainQuery(3, Predicate::Overlap()).value();
  const std::vector<double> diagonals = {100, 1, 100};
  const auto bounds = ComputeReplicationBounds(q, diagonals);
  EXPECT_DOUBLE_EQ(bounds[0], 1);  // Through tiny R2 only.
  EXPECT_DOUBLE_EQ(bounds[2], 1);
  EXPECT_DOUBLE_EQ(bounds[1], 0);  // R2 touches both neighbors directly.
}

TEST(BoundsTest, EndRelationsExtentIsNeverAddedAndSubtracted) {
  // A 2-way Ra(0.1) whose partner has diagonal 1024: the bound is the
  // distance alone, exactly. Adding the partner's diagonal and subtracting
  // it again gives (0.1 + 1024) − 1024 = 0.09999999999990905.
  const Query q = MakeChainQuery(2, Predicate::Range(0.1)).value();
  const auto bounds = ComputeReplicationBounds(q, {1, 1024});
  EXPECT_EQ(bounds[0], 0.1);
  EXPECT_EQ(bounds[1], 0.1);
}

TEST(BoundsTest, StarLeavesPayTheCenterExtentOnly) {
  // C Ra(2) L_i: the center is one hop from every leaf; a leaf reaches
  // another leaf through the center, charging its extent, never another
  // leaf's.
  QueryBuilder b;
  const int center = b.AddRelation("C");
  const int l1 = b.AddRelation("L1");
  const int l2 = b.AddRelation("L2");
  const int l3 = b.AddRelation("L3");
  b.AddRange(center, l1, 2).AddRange(center, l2, 2).AddRange(center, l3, 2);
  const Query q = b.Build().value();
  const auto bounds = ComputeReplicationBounds(q, {5, 100, 100, 100});
  EXPECT_EQ(bounds[static_cast<size_t>(center)], 2);
  for (int leaf : {l1, l2, l3}) {
    EXPECT_EQ(bounds[static_cast<size_t>(leaf)], 2 + 5 + 2);
  }
}

TEST(BoundsTest, RangeTriangleTakesTheCheaperWayRound) {
  // R1 Ra(1) R2, R2 Ra(2) R3, R3 Ra(10) R1 with extents {1, 0.5, 1}: R1
  // and R3 are closer through R2 (1 + 0.5 + 2 = 3.5) than directly (10).
  QueryBuilder b;
  const int r1 = b.AddRelation("R1");
  const int r2 = b.AddRelation("R2");
  const int r3 = b.AddRelation("R3");
  b.AddRange(r1, r2, 1).AddRange(r2, r3, 2).AddRange(r3, r1, 10);
  const Query q = b.Build().value();
  const auto bounds = ComputeReplicationBounds(q, {1, 0.5, 1});
  EXPECT_EQ(bounds[0], 3.5);
  EXPECT_EQ(bounds[1], 2);
  EXPECT_EQ(bounds[2], 3.5);
}

TEST(BoundsTest, NaNDistanceImposesNoLimit) {
  // Every path between R3 and the others crosses the NaN condition.
  QueryBuilder b;
  const int r1 = b.AddRelation("R1");
  const int r2 = b.AddRelation("R2");
  const int r3 = b.AddRelation("R3");
  b.AddRange(r1, r2, 1).AddRange(r2, r3, std::nan(""));
  const Query q = b.Build().value();
  for (double bound : ComputeReplicationBounds(q, {1, 3, 1})) {
    EXPECT_EQ(bound, kInfinity);
  }
}

TEST(BoundsTest, ReachLimitWidensOutwardOnce) {
  // The limit lies beyond origin + bound, by far less than any extent.
  EXPECT_GT(ReachLimit(0, 0.1), 0.1);
  EXPECT_LT(ReachLimit(0, 0.1), 0.1 + 1e-9);
  EXPECT_EQ(ReachLimit(0, 0), 0);
  EXPECT_GT(ReachLimit(1e6, 2), 1e6 + 2);
  EXPECT_LT(ReachLimit(1e6, 2), 1e6 + 2 + 1e-2);
  EXPECT_GT(ReachLimit(-1e6, 2), -1e6 + 2);
  EXPECT_EQ(ReachLimit(kInfinity, 1), kInfinity);
  EXPECT_EQ(ReachLimit(1e308, 1e308), kInfinity);
  EXPECT_TRUE(std::isnan(ReachLimit(0, std::nan(""))));
}

TEST(BoundsValidationTest, AcceptsOrdinaryQueries) {
  const Query q = MakeChainQuery(3, Predicate::Range(100)).value();
  EXPECT_TRUE(ValidateQueryBounds(q, Rect(0, 0, 1000, 1000)).ok());
  const Query ov = MakeChainQuery(4, Predicate::Overlap()).value();
  EXPECT_TRUE(ValidateQueryBounds(ov, Rect(-1e6, -1e6, 1e6, 1e6)).ok());
}

TEST(BoundsValidationTest, RejectsOverflowingRangeDistance) {
  // EnlargeByDistance(1e300) pushes corners to ±inf, which routes the
  // rectangle to no grid cell and silently drops its join results.
  const Query q = MakeChainQuery(3, Predicate::Range(1e300)).value();
  const Status s = ValidateQueryBounds(q, Rect(0, 0, 1000, 1000));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  const Query inf_q =
      MakeChainQuery(2, Predicate::Range(std::numeric_limits<double>::infinity()))
          .value();
  EXPECT_EQ(ValidateQueryBounds(inf_q, Rect(0, 0, 1, 1)).code(),
            StatusCode::kInvalidArgument);
}

TEST(BoundsValidationTest, RejectsNearDblMaxDataExtent) {
  // Even with modest distances, inputs near DBL_MAX overflow the summed
  // replication bounds (edge weight + diagonal chains).
  const Query q = MakeChainQuery(3, Predicate::Range(10)).value();
  const Rect huge(-1e308, -1e308, 1e308, 1e308);  // Diagonal overflows.
  EXPECT_EQ(ValidateQueryBounds(q, huge).code(),
            StatusCode::kInvalidArgument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(ValidateQueryBounds(q, Rect(nan, 0, 1, 1)).code(),
            StatusCode::kInvalidArgument);
}

TEST(BoundsValidationTest, BoundaryDistanceIsAccepted) {
  const Query q = MakeChainQuery(2, Predicate::Range(kMaxQueryDistance)).value();
  EXPECT_TRUE(ValidateQueryBounds(q, Rect(0, 0, 1, 1)).ok());
  const Query over =
      MakeChainQuery(2, Predicate::Range(std::nextafter(kMaxQueryDistance,
                                                        1e308)))
          .value();
  EXPECT_EQ(ValidateQueryBounds(over, Rect(0, 0, 1, 1)).code(),
            StatusCode::kInvalidArgument);
}

TEST(BoundsTest, HybridChainAddsOnlyRangeWeights) {
  // R1 Ov R2 ∧ R2 Ra(d) R3 (the paper's Q4 shape).
  QueryBuilder b;
  const int r1 = b.AddRelation("R1");
  const int r2 = b.AddRelation("R2");
  const int r3 = b.AddRelation("R3");
  b.AddOverlap(r1, r2).AddRange(r2, r3, 200);
  const Query q = b.Build().value();
  const double dmax = 10;
  const auto bounds = ComputeReplicationBounds(q, dmax);
  EXPECT_DOUBLE_EQ(bounds[0], dmax + 200);  // Through R2 to R3.
  EXPECT_DOUBLE_EQ(bounds[1], 200);         // Direct Ra edge dominates.
  EXPECT_DOUBLE_EQ(bounds[2], 200 + dmax);
}

}  // namespace
}  // namespace mwsj
