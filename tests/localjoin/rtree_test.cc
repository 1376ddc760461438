// STR R-tree: Collect must return exactly the rectangles a linear scan of
// Predicate::Evaluate accepts.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/random.h"
#include "localjoin/rtree.h"

namespace mwsj {
namespace {

std::vector<Rect> RandomRects(int n, uint64_t seed, double space = 100,
                              double max_dim = 10) {
  Rng rng(seed);
  std::vector<Rect> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double l = rng.Uniform(0, max_dim);
    const double b = rng.Uniform(0, max_dim);
    out.push_back(Rect::FromXYLB(rng.Uniform(0, space - l),
                                 rng.Uniform(b, space), l, b));
  }
  return out;
}

std::vector<int32_t> Sorted(std::vector<int32_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<int32_t> Collect(const RTree& tree, const Predicate& predicate,
                             const Rect& query) {
  RTree::QueryScratch scratch;
  std::vector<int32_t> out;
  tree.Collect(predicate, query, &scratch, &out);
  return out;
}

// The indices a linear scan of Predicate::Evaluate accepts, ascending.
std::vector<int32_t> EvaluateScan(const std::vector<Rect>& rects,
                                  const Predicate& predicate,
                                  const Rect& query) {
  std::vector<int32_t> want;
  for (size_t i = 0; i < rects.size(); ++i) {
    if (predicate.Evaluate(rects[i], query)) {
      want.push_back(static_cast<int32_t>(i));
    }
  }
  return want;
}

TEST(RTreeTest, EmptyTreeReturnsNothing) {
  const RTree tree(std::vector<Rect>{});
  EXPECT_TRUE(
      Collect(tree, Predicate::Overlap(), Rect(0, 0, 100, 100)).empty());
  EXPECT_EQ(tree.size(), 0u);
}

TEST(RTreeTest, SingleEntry) {
  const std::vector<Rect> rects = {Rect::FromXYLB(5, 10, 2, 2)};
  const RTree tree(rects);
  EXPECT_EQ(Collect(tree, Predicate::Overlap(), Rect::FromXYLB(6, 9, 2, 2)),
            (std::vector<int32_t>{0}));
  EXPECT_TRUE(Collect(tree, Predicate::Overlap(), Rect::FromXYLB(50, 50, 1, 1))
                  .empty());
}

// Small trees on both sides of one leaf at the default capacity (16): one
// leaf (1, 7, 16 rectangles) and one past it (17), each in a space dense
// enough that probes hit.
struct TreeShape {
  int n;
  double space;
};
constexpr TreeShape kShapes[] = {{1, 20}, {7, 30}, {16, 40}, {17, 40}};

class RTreeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(RTreeRandomTest, OverlapProbesMatchLinearScan) {
  const int seed = GetParam();
  const std::vector<Rect> rects =
      RandomRects(400, static_cast<uint64_t>(seed) + 1);
  const RTree tree(rects, /*leaf_capacity=*/8);
  Rng rng(static_cast<uint64_t>(seed) + 1000);
  for (int probe = 0; probe < 50; ++probe) {
    const Rect q = Rect::FromXYLB(rng.Uniform(0, 90), rng.Uniform(10, 100),
                                  rng.Uniform(0, 20), rng.Uniform(0, 20));
    EXPECT_EQ(Sorted(Collect(tree, Predicate::Overlap(), q)),
              EvaluateScan(rects, Predicate::Overlap(), q))
        << "probe " << probe;
  }
  for (const TreeShape& shape : kShapes) {
    const std::vector<Rect> small = RandomRects(
        shape.n, static_cast<uint64_t>(seed) * 31 + 5, shape.space);
    const RTree small_tree(small);
    for (int probe = 0; probe < 20; ++probe) {
      const Rect q = Rect::FromXYLB(
          rng.Uniform(0, shape.space - 5), rng.Uniform(5, shape.space),
          rng.Uniform(0, 5), rng.Uniform(0, 5));
      EXPECT_EQ(Sorted(Collect(small_tree, Predicate::Overlap(), q)),
                EvaluateScan(small, Predicate::Overlap(), q))
          << "n " << shape.n << " probe " << probe;
    }
  }
}

// Random distances plus the edge cases of Range(d): 0 (touching counts),
// 1e200 (d·d overflows: the scalar traversal), and a negative or NaN d,
// which Evaluate rejects for every pair.
TEST_P(RTreeRandomTest, DistanceProbesMatchLinearScan) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const int seed = GetParam();
  const std::vector<Rect> rects =
      RandomRects(300, static_cast<uint64_t>(seed) + 7);
  const RTree tree(rects, /*leaf_capacity=*/4);
  Rng rng(static_cast<uint64_t>(seed) + 2000);
  for (int probe = 0; probe < 30; ++probe) {
    const Rect q = Rect::FromXYLB(rng.Uniform(0, 95), rng.Uniform(5, 100),
                                  rng.Uniform(0, 5), rng.Uniform(0, 5));
    for (const double d : {rng.Uniform(0, 15), 0.0, 1e200, -1.0, kNaN}) {
      EXPECT_EQ(Sorted(Collect(tree, Predicate::Range(d), q)),
                EvaluateScan(rects, Predicate::Range(d), q))
          << "probe " << probe << " d=" << d;
    }
  }
  for (const TreeShape& shape : kShapes) {
    const std::vector<Rect> small = RandomRects(
        shape.n, static_cast<uint64_t>(seed) * 37 + 11, shape.space);
    const RTree small_tree(small);
    for (int probe = 0; probe < 10; ++probe) {
      const Rect q = Rect::FromXYLB(
          rng.Uniform(0, shape.space - 5), rng.Uniform(5, shape.space),
          rng.Uniform(0, 5), rng.Uniform(0, 5));
      for (const double d : {rng.Uniform(0, 5), 0.0, 1e200, -1.0, kNaN}) {
        EXPECT_EQ(Sorted(Collect(small_tree, Predicate::Range(d), q)),
                  EvaluateScan(small, Predicate::Range(d), q))
            << "n " << shape.n << " probe " << probe << " d=" << d;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RTreeRandomTest, ::testing::Range(0, 6));

TEST(RTreeScratchTest, EmptyTreeWithScratchReturnsNothing) {
  const RTree tree(std::vector<Rect>{});
  RTree::QueryScratch scratch;
  std::vector<int32_t> out;
  tree.Collect(Predicate::Overlap(), Rect(0, 0, 100, 100), &scratch, &out);
  EXPECT_TRUE(out.empty());
  tree.Collect(Predicate::Range(5.0), Rect(0, 0, 100, 100), &scratch,
               &out);
  EXPECT_TRUE(out.empty());
  // The empty early-out must not grow the scratch stack.
  EXPECT_TRUE(scratch.stack.empty());
}

TEST(RTreeScratchTest, SingleRectTree) {
  const std::vector<Rect> rects = {Rect::FromXYLB(5, 10, 2, 2)};
  const RTree tree(rects);
  RTree::QueryScratch scratch;
  std::vector<int32_t> out;
  tree.Collect(Predicate::Overlap(), Rect::FromXYLB(6, 9, 2, 2), &scratch,
               &out);
  EXPECT_EQ(out, (std::vector<int32_t>{0}));
  out.clear();
  tree.Collect(Predicate::Overlap(), Rect::FromXYLB(50, 50, 1, 1), &scratch,
               &out);
  EXPECT_TRUE(out.empty());
  out.clear();
  tree.Collect(Predicate::Range(3.0), Rect::FromXYLB(10, 9, 1, 1), &scratch,
               &out);
  EXPECT_EQ(out, (std::vector<int32_t>{0}));
  out.clear();
  tree.Collect(Predicate::Range(2.9), Rect::FromXYLB(10, 9, 1, 1), &scratch,
               &out);
  EXPECT_TRUE(out.empty());
}

TEST(RTreeScratchTest, ScratchReusableAcrossProbesAndTrees) {
  const std::vector<Rect> rects_a = RandomRects(200, 11);
  const std::vector<Rect> rects_b = RandomRects(150, 12);
  const RTree tree_a(rects_a, /*leaf_capacity=*/8);
  const RTree tree_b(rects_b, /*leaf_capacity=*/4);
  RTree::QueryScratch scratch;
  Rng rng(99);
  for (int probe = 0; probe < 40; ++probe) {
    const Rect q = Rect::FromXYLB(rng.Uniform(0, 90), rng.Uniform(10, 100),
                                  rng.Uniform(0, 15), rng.Uniform(0, 15));
    const RTree& tree = (probe % 2 == 0) ? tree_a : tree_b;
    const std::vector<Rect>& rects = (probe % 2 == 0) ? rects_a : rects_b;
    std::vector<int32_t> got;
    tree.Collect(Predicate::Overlap(), q, &scratch, &got);
    EXPECT_EQ(Sorted(got), EvaluateScan(rects, Predicate::Overlap(), q))
        << "probe " << probe;
  }
}

TEST(RTreeScratchTest, DistanceZeroMatchesTouchingRectangles) {
  // d = 0 range queries degenerate to "MinDistance == 0": overlapping or
  // exactly touching rectangles qualify, disjoint ones do not.
  const std::vector<Rect> rects = {
      Rect(0, 0, 2, 2),    // Overlaps the probe.
      Rect(3, 0, 5, 2),    // Touches the probe's right edge.
      Rect(3, 3, 5, 5),    // Touches the probe's corner.
      Rect(3.1, 0, 5, 2),  // Disjoint by 0.1.
  };
  const RTree tree(rects, /*leaf_capacity=*/2);
  const Rect probe(1, 0, 3, 3);
  RTree::QueryScratch scratch;
  std::vector<int32_t> out;
  tree.Collect(Predicate::Range(0.0), probe, &scratch, &out);
  EXPECT_EQ(Sorted(out), (std::vector<int32_t>{0, 1, 2}));
  // A random set, cross-checked against a linear scan at d = 0.
  const std::vector<Rect> random = RandomRects(300, 21);
  const RTree random_tree(random, /*leaf_capacity=*/8);
  Rng rng(22);
  for (int probe_i = 0; probe_i < 30; ++probe_i) {
    const Rect q = Rect::FromXYLB(rng.Uniform(0, 90), rng.Uniform(10, 100),
                                  rng.Uniform(0, 20), rng.Uniform(0, 20));
    std::vector<int32_t> got;
    random_tree.Collect(Predicate::Range(0.0), q, &scratch, &got);
    EXPECT_EQ(Sorted(got), EvaluateScan(random, Predicate::Range(0.0), q))
        << "probe " << probe_i;
  }
}

TEST(RTreeScratchTest, TinyDistancesMatchWithinDistance) {
  // d·d underflows below d ~ 1.5e-154: the probe takes the hypot form, as
  // WithinDistance does, and a gap of 1e-163 misses Ra(1e-170).
  const std::vector<Rect> rects = {Rect::FromPoint(Point{1e-163, 0}),
                                   Rect::FromPoint(Point{1e-171, 0}),
                                   Rect::FromPoint(Point{0, 0})};
  const RTree tree(rects, /*leaf_capacity=*/2);
  const Rect probe = Rect::FromPoint(Point{0, 0});
  for (double d : {0.0, 1e-170, 1e-160}) {
    EXPECT_EQ(Sorted(Collect(tree, Predicate::Range(d), probe)),
              EvaluateScan(rects, Predicate::Range(d), probe))
        << "d=" << d;
  }
  EXPECT_EQ(Sorted(Collect(tree, Predicate::Range(1e-170), probe)),
            (std::vector<int32_t>{1, 2}));
}

TEST(RTreeTest, HandlesManyIdenticalRectangles) {
  const std::vector<Rect> rects(100, Rect::FromXYLB(5, 5, 1, 1));
  const RTree tree(rects);
  const std::vector<int32_t> out =
      Collect(tree, Predicate::Overlap(), Rect::FromXYLB(5.5, 5, 1, 1));
  EXPECT_EQ(out.size(), 100u);
}

TEST(RTreeTest, DegeneratePointEntriesAreFound) {
  std::vector<Rect> rects;
  for (int i = 0; i < 20; ++i) {
    rects.push_back(Rect::FromPoint(Point{static_cast<double>(i), 1.0}));
  }
  const RTree tree(rects, 4);
  const std::vector<int32_t> out =
      Collect(tree, Predicate::Overlap(), Rect(4.5, 0, 9.5, 2));
  EXPECT_EQ(Sorted(out), (std::vector<int32_t>{5, 6, 7, 8, 9}));
}

}  // namespace
}  // namespace mwsj
