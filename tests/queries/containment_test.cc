// Containment as the overlap join: a point lies in a closed rectangle
// exactly when its degenerate rectangle (Rect::FromPoint) meets it under
// Ov, so `P OV R` through RunSpatialJoin answers the paper's §10
// containment query. Every grid-partitioned algorithm must match a
// nested-loop Rect::Contains reference, including points on rectangle
// corners and on grid lines.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "core/runner.h"
#include "query/parser.h"

namespace mwsj {
namespace {

constexpr Algorithm kGridAlgorithms[] = {
    Algorithm::kControlledReplicate, Algorithm::kControlledReplicateInLimit,
    Algorithm::kAllReplicate, Algorithm::kTwoWayCascade};

std::vector<Rect> RandomPoints(int n, uint64_t seed, double space = 100) {
  Rng rng(seed);
  std::vector<Rect> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(Rect::FromPoint(
        Point{rng.Uniform(0, space), rng.Uniform(0, space)}));
  }
  return out;
}

std::vector<Rect> RandomRects(int n, uint64_t seed, double space = 100) {
  Rng rng(seed);
  std::vector<Rect> out;
  for (int i = 0; i < n; ++i) {
    const double l = rng.Uniform(0, 20);
    const double b = rng.Uniform(0, 20);
    out.push_back(
        Rect::FromXYLB(rng.Uniform(0, space - l), rng.Uniform(b, space), l, b));
  }
  return out;
}

// Nested loop over Rect::Contains, as sorted {point id, rect id} rows.
TupleBlock Reference(const std::vector<Rect>& points,
                     const std::vector<Rect>& rects) {
  TupleBlock out(2);
  for (size_t p = 0; p < points.size(); ++p) {
    const Point point{points[p].min_x(), points[p].min_y()};
    for (size_t r = 0; r < rects.size(); ++r) {
      if (rects[r].Contains(point)) {
        const std::span<int64_t> row = out.AppendRow();
        row[0] = static_cast<int64_t>(p);
        row[1] = static_cast<int64_t>(r);
      }
    }
  }
  return out;
}

// Runs `P OV R` with every grid algorithm on a `rows`x`cols` grid over
// `space` and checks each against the reference.
void ExpectContainment(const std::vector<Rect>& points,
                       const std::vector<Rect>& rects, const Rect& space,
                       int rows, int cols) {
  const Query query = ParseQuery("P OV R").value();
  const std::vector<std::vector<Rect>> relations = {points, rects};
  const TupleBlock expected = Reference(points, rects);
  for (Algorithm algorithm : kGridAlgorithms) {
    RunnerOptions options;
    options.algorithm = algorithm;
    options.grid_rows = rows;
    options.grid_cols = cols;
    options.space = space;
    const StatusOr<JoinRunResult> result =
        RunSpatialJoin(query, relations, options);
    ASSERT_TRUE(result.ok())
        << AlgorithmName(algorithm) << ": " << result.status().message();
    EXPECT_EQ(result.value().tuples, expected) << AlgorithmName(algorithm);
    EXPECT_EQ(result.value().num_tuples,
              static_cast<int64_t>(expected.size()))
        << AlgorithmName(algorithm);
  }
}

class ContainmentTest : public ::testing::TestWithParam<int> {};

TEST_P(ContainmentTest, MatchesReference) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  ExpectContainment(RandomPoints(300, seed * 3 + 1),
                    RandomRects(200, seed * 3 + 2), Rect(0, 0, 100, 100), 4,
                    4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainmentTest, ::testing::Range(0, 6));

TEST(ContainmentEdgeTest, PointOnRectangleBoundaryCounts) {
  // The point is the rectangle's top-left corner: closed containment.
  ExpectContainment({Rect::FromPoint(Point{3, 7})},
                    {Rect::FromXYLB(3, 7, 2, 2)}, Rect(0, 0, 10, 10), 2, 2);
}

TEST(ContainmentEdgeTest, PointOnGridLineFindsRectAcrossTheLine) {
  // Points exactly on the vertical grid line x=5, on the horizontal one
  // y=5 and on their crossing; the containing rectangles straddle the
  // lines, so they reach the cells on both sides. The last rectangle has
  // its top-left corner on the crossing and its top edge on y=5.
  ExpectContainment(
      {Rect::FromPoint(Point{5, 7}), Rect::FromPoint(Point{7, 5}),
       Rect::FromPoint(Point{5, 5})},
      {Rect::FromXYLB(4.5, 8, 2, 2), Rect::FromXYLB(6, 6, 2, 2),
       Rect::FromXYLB(4, 6, 2, 2), Rect::FromXYLB(5, 5, 3, 3)},
      Rect(0, 0, 10, 10), 2, 2);
}

TEST(ContainmentEdgeTest, EmptyInputs) {
  const Rect space(0, 0, 100, 100);
  ExpectContainment({}, {}, space, 2, 2);
  ExpectContainment(RandomPoints(10, 1), {}, space, 2, 2);
  ExpectContainment({}, RandomRects(10, 2), space, 2, 2);
}

}  // namespace
}  // namespace mwsj
