// Query model: builder validation, predicates, join-graph structure.

#include <gtest/gtest.h>

#include "query/query.h"

namespace mwsj {
namespace {

TEST(PredicateTest, OverlapEvaluation) {
  const Predicate p = Predicate::Overlap();
  EXPECT_TRUE(p.is_overlap());
  EXPECT_DOUBLE_EQ(p.distance(), 0);
  EXPECT_TRUE(p.Evaluate(Rect::FromXYLB(0, 1, 1, 1),
                         Rect::FromXYLB(0.5, 1, 1, 1)));
  EXPECT_FALSE(p.Evaluate(Rect::FromXYLB(0, 1, 1, 1),
                          Rect::FromXYLB(5, 1, 1, 1)));
  EXPECT_EQ(p.ToString(), "Ov");
}

TEST(PredicateTest, RangeEvaluation) {
  const Predicate p = Predicate::Range(2.0);
  EXPECT_TRUE(p.is_range());
  EXPECT_DOUBLE_EQ(p.distance(), 2.0);
  EXPECT_TRUE(p.Evaluate(Rect::FromXYLB(0, 1, 1, 1),
                         Rect::FromXYLB(3, 1, 1, 1)));  // Exactly 2 apart.
  EXPECT_FALSE(p.Evaluate(Rect::FromXYLB(0, 1, 1, 1),
                          Rect::FromXYLB(3.5, 1, 1, 1)));
  EXPECT_EQ(p.ToString(), "Ra(2)");
}

TEST(QueryBuilderTest, BuildsValidChain) {
  QueryBuilder b;
  const int r1 = b.AddRelation("city");
  const int r2 = b.AddRelation("forest");
  const int r3 = b.AddRelation("river");
  b.AddOverlap(r1, r2).AddRange(r2, r3, 100);
  const auto q = b.Build();
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().num_relations(), 3);
  EXPECT_EQ(q.value().conditions().size(), 2u);
  EXPECT_EQ(q.value().ToString(), "city Ov forest AND forest Ra(100) river");
}

TEST(QueryBuilderTest, RejectsTooFewRelations) {
  QueryBuilder b;
  b.AddRelation("only");
  EXPECT_FALSE(b.Build().ok());
}

TEST(QueryBuilderTest, RejectsNoConditions) {
  QueryBuilder b;
  b.AddRelation("a");
  b.AddRelation("b");
  EXPECT_FALSE(b.Build().ok());
}

TEST(QueryBuilderTest, RejectsSelfEdge) {
  QueryBuilder b;
  const int r1 = b.AddRelation("a");
  b.AddRelation("b");
  b.AddOverlap(r1, r1);
  EXPECT_FALSE(b.Build().ok());
}

TEST(QueryBuilderTest, RejectsOutOfRangeIndices) {
  QueryBuilder b;
  b.AddRelation("a");
  b.AddRelation("b");
  b.AddOverlap(0, 5);
  EXPECT_FALSE(b.Build().ok());
}

TEST(QueryBuilderTest, RejectsNegativeRangeDistance) {
  QueryBuilder b;
  const int r1 = b.AddRelation("a");
  const int r2 = b.AddRelation("b");
  b.AddRange(r1, r2, -1);
  EXPECT_FALSE(b.Build().ok());
}

TEST(QueryBuilderTest, RejectsDisconnectedGraph) {
  QueryBuilder b;
  const int r1 = b.AddRelation("a");
  const int r2 = b.AddRelation("b");
  const int r3 = b.AddRelation("c");
  const int r4 = b.AddRelation("d");
  b.AddOverlap(r1, r2).AddOverlap(r3, r4);  // Two components.
  const auto q = b.Build();
  EXPECT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryTest, AdjacencyListsConditionIndices) {
  QueryBuilder b;
  const int r1 = b.AddRelation("a");
  const int r2 = b.AddRelation("b");
  const int r3 = b.AddRelation("c");
  b.AddOverlap(r1, r2).AddOverlap(r2, r3);
  const Query q = b.Build().value();
  EXPECT_EQ(q.ConditionsOf(0), (std::vector<int>{0}));
  EXPECT_EQ(q.ConditionsOf(1), (std::vector<int>{0, 1}));
  EXPECT_EQ(q.ConditionsOf(2), (std::vector<int>{1}));
}

TEST(QueryTest, MatchesEvaluatesFullAssignments) {
  const Query q = MakeChainQuery(3, Predicate::Overlap()).value();
  const Rect a = Rect::FromXYLB(0, 1, 1, 1);
  const Rect b = Rect::FromXYLB(0.5, 1, 1, 1);
  const Rect c = Rect::FromXYLB(1.2, 1, 1, 1);
  EXPECT_TRUE(q.Matches({a, b, c}));       // a-b and b-c overlap.
  EXPECT_FALSE(q.Matches({a, c, b}));      // a and c do not overlap.
  const Rect far = Rect::FromXYLB(50, 1, 1, 1);
  EXPECT_FALSE(q.Matches({a, b, far}));
}

TEST(QueryTest, MakeChainQueryShapes) {
  const Query q2 = MakeChainQuery(3, Predicate::Overlap()).value();
  EXPECT_EQ(q2.conditions().size(), 2u);
  for (const JoinCondition& c : q2.conditions()) {
    EXPECT_TRUE(c.predicate.is_overlap());
  }
  const Query q3 = MakeChainQuery(4, Predicate::Range(100)).value();
  EXPECT_EQ(q3.conditions().size(), 3u);
  for (const JoinCondition& c : q3.conditions()) {
    EXPECT_DOUBLE_EQ(c.predicate.distance(), 100);
  }
  EXPECT_FALSE(MakeChainQuery(1, Predicate::Overlap()).ok());
}

TEST(QueryCanonicalTest, EquivalentSpellingsShareOneKey) {
  // The same chain R1 -Ov- R2 -Ra(5)- R3 spelled three ways: relations
  // registered in a different order, condition endpoints swapped (both
  // predicates are symmetric), and the condition list reordered.
  QueryBuilder b1;
  const int a1 = b1.AddRelation("R1");
  const int b1r = b1.AddRelation("R2");
  const int c1 = b1.AddRelation("R3");
  b1.AddOverlap(a1, b1r).AddRange(b1r, c1, 5.0);
  const Query spelled1 = b1.Build().value();

  QueryBuilder b2;
  const int c2 = b2.AddRelation("R3");
  const int b2r = b2.AddRelation("R2");
  const int a2 = b2.AddRelation("R1");
  b2.AddRange(c2, b2r, 5.0).AddOverlap(b2r, a2);
  const Query spelled2 = b2.Build().value();

  EXPECT_EQ(spelled1.CanonicalForm(), spelled2.CanonicalForm());
  EXPECT_EQ(spelled1.CanonicalHash(), spelled2.CanonicalHash());
  EXPECT_EQ(spelled1.CanonicalKey(), spelled2.CanonicalKey());
}

TEST(QueryCanonicalTest, DistinctQueriesRenderDistinctForms) {
  auto chain = [](Predicate predicate) {
    return MakeChainQuery(3, predicate).value();
  };
  const Query overlap = chain(Predicate::Overlap());
  const Query range5 = chain(Predicate::Range(5.0));
  const Query range5eps = chain(Predicate::Range(5.0 + 1e-13));
  EXPECT_NE(overlap.CanonicalForm(), range5.CanonicalForm());
  // Full-precision distances: nearby but distinct d never alias.
  EXPECT_NE(range5.CanonicalForm(), range5eps.CanonicalForm());

  // Same shape, different relation names.
  QueryBuilder other_names;
  const int x = other_names.AddRelation("lakes");
  const int y = other_names.AddRelation("roads");
  const int z = other_names.AddRelation("parks");
  other_names.AddOverlap(x, y).AddOverlap(y, z);
  EXPECT_NE(other_names.Build().value().CanonicalForm(),
            overlap.CanonicalForm());

  // Same relations, different join-graph structure (chain vs. star from
  // relation 0).
  QueryBuilder star;
  const int s1 = star.AddRelation("R1");
  const int s2 = star.AddRelation("R2");
  const int s3 = star.AddRelation("R3");
  star.AddOverlap(s1, s2).AddOverlap(s1, s3);
  EXPECT_NE(star.Build().value().CanonicalForm(), overlap.CanonicalForm());
}

TEST(QueryCanonicalTest, NamesCannotForgeSeparators) {
  // Length-prefixed names: a name containing the rendered separator
  // characters cannot collide with two differently-split names.
  QueryBuilder tricky;
  const int t1 = tricky.AddRelation("a,3:b");
  const int t2 = tricky.AddRelation("c");
  tricky.AddOverlap(t1, t2);

  QueryBuilder plain;
  const int p1 = plain.AddRelation("a");
  const int p2 = plain.AddRelation("b,1:c");
  plain.AddOverlap(p1, p2);

  EXPECT_NE(tricky.Build().value().CanonicalForm(),
            plain.Build().value().CanonicalForm());
}

TEST(QueryCanonicalTest, KeyEmbedsTheHash) {
  const Query q = MakeChainQuery(3, Predicate::Overlap()).value();
  const std::string key = q.CanonicalKey();
  EXPECT_EQ(key.find('q'), 0u);
  EXPECT_NE(key.find(q.CanonicalForm()), std::string::npos);
  EXPECT_EQ(q.CanonicalKey(), key);  // Deterministic.
}

TEST(QueryCanonicalTest, RanksRecoverThePositionBindingTheFormForgets) {
  // Two structurally different queries whose canonical forms collide:
  // chain A-B-C vs. the chain written B-A, B-C with relations registered
  // as [B, A, C]. Both render rels[A,B,C] conds[0 Ov 1, 1 Ov 2], but the
  // first binds position 1 to the chain's center while the second binds
  // position 0 — exactly the distinction CanonicalRanks() preserves.
  QueryBuilder chain;
  const int ca = chain.AddRelation("A");
  const int cb = chain.AddRelation("B");
  const int cc = chain.AddRelation("C");
  chain.AddOverlap(ca, cb).AddOverlap(cb, cc);
  const Query q1 = chain.Build().value();

  QueryBuilder relabeled;
  const int rb = relabeled.AddRelation("B");
  const int ra = relabeled.AddRelation("A");
  const int rc = relabeled.AddRelation("C");
  relabeled.AddOverlap(rb, ra).AddOverlap(rb, rc);
  const Query q2 = relabeled.Build().value();

  ASSERT_EQ(q1.CanonicalForm(), q2.CanonicalForm());
  EXPECT_EQ(q1.CanonicalRanks(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q2.CanonicalRanks(), (std::vector<int>{1, 0, 2}));

  // Self-join spelling of the same trap: one dataset under one name three
  // times, path centered at position 1 vs. position 0. Names and
  // signatures agree pairwise, so only the permutation tells them apart.
  QueryBuilder center1;
  center1.AddRelation("R");
  center1.AddRelation("R");
  center1.AddRelation("R");
  center1.AddOverlap(0, 1).AddOverlap(1, 2);
  QueryBuilder center0;
  center0.AddRelation("R");
  center0.AddRelation("R");
  center0.AddRelation("R");
  center0.AddOverlap(0, 1).AddOverlap(0, 2);
  const Query path1 = center1.Build().value();
  const Query path0 = center0.Build().value();
  ASSERT_EQ(path1.CanonicalForm(), path0.CanonicalForm());
  EXPECT_NE(path1.CanonicalRanks(), path0.CanonicalRanks());
}

}  // namespace
}  // namespace mwsj
