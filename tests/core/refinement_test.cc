// Filter-and-refine pipeline (§1.1) over polygon datasets.

#include <gtest/gtest.h>

#include "core/refinement.h"

namespace mwsj {
namespace {

TEST(RefineTuplesTest, DropsMbrOnlyMatches) {
  QueryBuilder b;
  b.AddRelation("A");
  b.AddRelation("B");
  b.AddOverlap(0, 1);
  const Query q = b.Build().value();

  // `a` occupies the region below the square's main diagonal; `b_miss`
  // sits strictly above it, so the MBRs overlap but the shapes do not.
  const Polygon a({{0, 0}, {4, 0}, {4, 4}});
  const Polygon b_hit({{1, 0.5}, {4, 0.5}, {4, 2}});
  const Polygon b_miss({{0, 0.5}, {0, 4.5}, {3.5, 4.5}});
  ASSERT_TRUE(Overlaps(a.Mbr(), b_miss.Mbr()));
  ASSERT_FALSE(a.Intersects(b_miss));
  ASSERT_TRUE(a.Intersects(b_hit));

  const std::vector<std::vector<Polygon>> relations = {{a}, {b_hit, b_miss}};
  const TupleBlock candidates = {{0, 0}, {0, 1}};
  EXPECT_EQ(RefineTuples(q, relations, candidates),
            (TupleBlock{{0, 0}}));
}

TEST(RefineTuplesTest, RangePredicateUsesExactPolygonDistance) {
  QueryBuilder b;
  b.AddRelation("A");
  b.AddRelation("B");
  b.AddRange(0, 1, 1.0);
  const Query q = b.Build().value();

  // Corner-to-corner: MBRs are within 1.0 but the true shapes are not.
  const Polygon a({{0, 0}, {2, 0}, {0, 2}});            // Lower-left triangle.
  const Polygon far({{2.4, 2.4}, {3.5, 2.4}, {3.5, 3.5}});  // Across the gap.
  ASSERT_TRUE(WithinDistance(a.Mbr(), far.Mbr(), 1.0));
  ASSERT_GT(a.MinDistanceTo(far), 1.0);

  const std::vector<std::vector<Polygon>> relations = {{a}, {far}};
  EXPECT_TRUE(RefineTuples(q, relations, {{0, 0}}).empty());
}

TEST(RunFilterRefineJoinTest, EndToEndPipeline) {
  // city Ov forest ∧ forest Ov river — the paper's §1 motivating query
  // shape, on synthetic polygons.
  QueryBuilder b;
  const int city = b.AddRelation("city");
  const int forest = b.AddRelation("forest");
  const int river = b.AddRelation("river");
  b.AddOverlap(city, forest).AddOverlap(forest, river);
  const Query q = b.Build().value();

  const Polygon city0 = Polygon::RegularNGon({10, 10}, 3, 6);
  const Polygon city1 = Polygon::RegularNGon({50, 50}, 3, 6);
  const Polygon forest0 = Polygon::RegularNGon({13, 10}, 3, 8);
  // A thin river polygon flowing past the forest.
  const Polygon river0({{14, 2}, {16, 2}, {17, 18}, {15, 18}});

  const std::vector<std::vector<Polygon>> relations = {
      {city0, city1}, {forest0}, {river0}};
  RunnerOptions options;
  options.algorithm = Algorithm::kControlledReplicate;
  options.grid_rows = 3;
  options.grid_cols = 3;
  const auto result = RunFilterRefineJoin(q, relations, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().tuples, (TupleBlock{{0, 0, 0}}));
  EXPECT_GE(result.value().candidate_tuples,
            static_cast<int64_t>(result.value().tuples.size()));
  EXPECT_FALSE(result.value().stats.jobs.empty());
}

TEST(RunFilterRefineJoinTest, PropagatesRunnerErrors) {
  QueryBuilder b;
  b.AddRelation("A");
  b.AddRelation("B");
  b.AddOverlap(0, 1);
  const Query q = b.Build().value();
  RunnerOptions options;
  options.grid_rows = -1;
  const auto result = RunFilterRefineJoin(
      q, {{Polygon::RegularNGon({1, 1}, 1, 4)},
          {Polygon::RegularNGon({1, 1}, 1, 4)}},
      options);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace mwsj
