// Geometry kernel tests: the paper's (x, y, l, b) object model, predicates
// and enlargement operations.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "geometry/rect.h"

namespace mwsj {
namespace {

TEST(RectTest, FromXYLBMatchesPaperNotation) {
  // Top-left (2, 10), length 3 rightward, breadth 4 downward.
  const Rect r = Rect::FromXYLB(2, 10, 3, 4);
  EXPECT_DOUBLE_EQ(r.min_x(), 2);
  EXPECT_DOUBLE_EQ(r.max_x(), 5);
  EXPECT_DOUBLE_EQ(r.max_y(), 10);
  EXPECT_DOUBLE_EQ(r.min_y(), 6);
  EXPECT_EQ(r.start_point(), (Point{2, 10}));
  EXPECT_DOUBLE_EQ(r.x(), 2);
  EXPECT_DOUBLE_EQ(r.y(), 10);
  EXPECT_DOUBLE_EQ(r.length(), 3);
  EXPECT_DOUBLE_EQ(r.breadth(), 4);
}

TEST(RectTest, AreaDiagonalCenter) {
  const Rect r = Rect::FromXYLB(0, 4, 3, 4);
  EXPECT_DOUBLE_EQ(r.Area(), 12);
  EXPECT_DOUBLE_EQ(r.Diagonal(), 5);
  EXPECT_EQ(r.center(), (Point{1.5, 2}));
}

TEST(RectTest, OverlapIsClosedSet) {
  const Rect a = Rect::FromXYLB(0, 1, 1, 1);
  const Rect b = Rect::FromXYLB(1, 1, 1, 1);  // Shares the edge x=1.
  EXPECT_TRUE(Overlaps(a, b));
  const Rect c = Rect::FromXYLB(1, 2, 1, 1);  // Shares only corner (1,1).
  EXPECT_TRUE(Overlaps(a, c));
  const Rect d = Rect::FromXYLB(1.001, 1, 1, 1);
  EXPECT_FALSE(Overlaps(a, d));
}

TEST(RectTest, DegenerateRectanglesAreValidAndOverlap) {
  const Rect point = Rect::FromPoint(Point{0.5, 0.5});
  EXPECT_TRUE(point.IsValid());
  EXPECT_DOUBLE_EQ(point.Area(), 0);
  const Rect box = Rect::FromXYLB(0, 1, 1, 1);
  EXPECT_TRUE(Overlaps(point, box));
  EXPECT_TRUE(Overlaps(point, point));
}

TEST(RectTest, MinDistanceAxisAndDiagonalGaps) {
  const Rect a = Rect::FromXYLB(0, 1, 1, 1);      // [0,1]x[0,1]
  const Rect right = Rect::FromXYLB(3, 1, 1, 1);  // [3,4]x[0,1]
  EXPECT_DOUBLE_EQ(MinDistance(a, right), 2);
  const Rect above = Rect::FromXYLB(0, 5, 1, 1);  // [0,1]x[4,5]
  EXPECT_DOUBLE_EQ(MinDistance(a, above), 3);
  const Rect diag = Rect::FromXYLB(4, 6, 1, 1);   // [4,5]x[5,6]
  EXPECT_DOUBLE_EQ(MinDistance(a, diag), 5);      // 3-4-5 triangle.
  EXPECT_DOUBLE_EQ(MinDistance(a, a), 0);
}

TEST(RectTest, WithinDistanceIsInclusive) {
  const Rect a = Rect::FromXYLB(0, 1, 1, 1);
  const Rect b = Rect::FromXYLB(3, 1, 1, 1);
  EXPECT_TRUE(WithinDistance(a, b, 2.0));   // Exactly 2 apart.
  EXPECT_FALSE(WithinDistance(a, b, 1.999));
}

TEST(RectTest, MinDistanceSquaredMatchesMinDistance) {
  const Rect a = Rect::FromXYLB(0, 1, 1, 1);      // [0,1]x[0,1]
  const Rect diag = Rect::FromXYLB(4, 6, 1, 1);   // [4,5]x[5,6]
  EXPECT_DOUBLE_EQ(MinDistanceSquared(a, diag), 25);  // 3-4-5 triangle.
  EXPECT_DOUBLE_EQ(MinDistanceSquared(a, a), 0);
  EXPECT_DOUBLE_EQ(MinDistanceSquared(a, Point{4, 5}), 25);
  EXPECT_DOUBLE_EQ(MinDistanceSquared(a, Point{0.5, 0.5}), 0);
}

TEST(RectTest, WithinDistanceExactBoundaryTies) {
  // Rectangles whose gap is *exactly* d must satisfy Range(d). The old
  // sqrt-then-compare form failed whenever sqrt(fl(d·d)) rounds above d;
  // the squared comparison fl(gap·gap) <= fl(d·d) is tie-exact because the
  // gap equals d bit-for-bit. Sweep awkward magnitudes (non-representable
  // fractions, irrational-ish values, very large and very small scales).
  const double ds[] = {0.1,         1.0 / 3.0, 0.7,   1.4142135623730951,
                       2.718281828, 1e-12,     1e150, 123456789.123456789};
  for (const double d : ds) {
    // Anchor the facing edges at 0 and d so the axis gap is d bit-exactly
    // (fl(d - 0) == d; an offset like 1+d would round the gap away).
    const Rect a(-1, 0, 0, 1);
    const Rect tie(d, 0, d + 1, 1);
    EXPECT_TRUE(WithinDistance(a, tie, d)) << "d=" << d;
    const Rect beyond(std::nextafter(d, 1e308), 0, d + 2, 1);
    EXPECT_FALSE(WithinDistance(a, beyond, d)) << "d=" << d;
  }
}

TEST(RectTest, WithinDistanceNegativeAndHugeD) {
  const Rect a(0, 0, 1, 1);
  const Rect b(3, 0, 4, 1);
  EXPECT_FALSE(WithinDistance(a, b, -1.0));  // Negative d matches nothing.
  EXPECT_FALSE(WithinDistance(a, a, -1e-300));
  EXPECT_TRUE(WithinDistance(a, a, -0.0));  // -0 == 0: behaves as d = 0.
  EXPECT_TRUE(WithinDistance(a, b, 0.0) == Overlaps(a, b));
  // d·d overflows to inf: the sqrt fallback must keep the comparison sane
  // instead of reading inf <= inf for any farther pair.
  const Rect far_rect(1e200, 0, 2e200, 1);
  EXPECT_FALSE(WithinDistance(a, far_rect, 1e155));
  EXPECT_TRUE(WithinDistance(a, far_rect, 1e201));
  EXPECT_TRUE(
      WithinDistance(a, far_rect, std::numeric_limits<double>::infinity()));
}

TEST(RectTest, WithinDistanceBelowTheNormalSquareRange) {
  // Below d ~ 1.5e-154, d·d and gap·gap underflow (to 0 or a subnormal)
  // and would compare equal; the hypot form decides these exactly.
  const Rect a = Rect::FromPoint(Point{0, 0});
  EXPECT_FALSE(WithinDistance(a, Rect::FromPoint(Point{1e-163, 0}), 1e-170));
  EXPECT_FALSE(WithinDistance(a, Rect::FromPoint(Point{1e-170, 0}), 0.0));
  EXPECT_TRUE(WithinDistance(a, Rect::FromPoint(Point{1e-171, 0}), 1e-170));
  EXPECT_TRUE(WithinDistance(a, a, 0.0));
}

TEST(RectTest, IsFiniteRejectsNaNAndInf) {
  EXPECT_TRUE(Rect(0, 0, 1, 1).IsFinite());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(Rect(nan, 0, 1, 1).IsFinite());
  EXPECT_FALSE(Rect(0, nan, 1, 1).IsFinite());
  EXPECT_FALSE(Rect(0, 0, inf, 1).IsFinite());
  EXPECT_FALSE(Rect(0, 0, 1, -inf).IsFinite());
  // NaN also fails IsValid: every comparison on NaN is false.
  EXPECT_FALSE(Rect(nan, 0, nan, 1).IsValid());
}

TEST(RectTest, MinDistanceToPoint) {
  const Rect a = Rect::FromXYLB(0, 1, 1, 1);
  EXPECT_DOUBLE_EQ(MinDistance(a, Point{0.5, 0.5}), 0);  // Inside.
  EXPECT_DOUBLE_EQ(MinDistance(a, Point{2, 0.5}), 1);
  EXPECT_DOUBLE_EQ(MinDistance(a, Point{4, 5}), 5);
}

TEST(RectTest, IntersectionOfOverlapping) {
  const Rect a = Rect::FromXYLB(0, 2, 2, 2);  // [0,2]x[0,2]
  const Rect b = Rect::FromXYLB(1, 3, 2, 2);  // [1,3]x[1,3]
  const auto inter = Intersection(a, b);
  ASSERT_TRUE(inter.has_value());
  EXPECT_EQ(*inter, Rect(1, 1, 2, 2));
  // Start point of the intersection drives §5.2 dedup.
  EXPECT_EQ(inter->start_point(), (Point{1, 2}));
}

TEST(RectTest, IntersectionOfDisjointIsEmpty) {
  const Rect a = Rect::FromXYLB(0, 1, 1, 1);
  const Rect b = Rect::FromXYLB(5, 1, 1, 1);
  EXPECT_FALSE(Intersection(a, b).has_value());
}

TEST(RectTest, IntersectionOfTouchingIsDegenerate) {
  const Rect a = Rect::FromXYLB(0, 1, 1, 1);
  const Rect b = Rect::FromXYLB(1, 1, 1, 1);
  const auto inter = Intersection(a, b);
  ASSERT_TRUE(inter.has_value());
  EXPECT_DOUBLE_EQ(inter->Area(), 0);
  EXPECT_DOUBLE_EQ(inter->min_x(), 1);
  EXPECT_DOUBLE_EQ(inter->max_x(), 1);
}

TEST(RectTest, EnlargeByDistanceMatchesSection53) {
  // §5.3: top-left (x1-d, y1+d), bottom-right (x2+d, y2-d).
  const Rect r = Rect::FromXYLB(2, 5, 2, 1);
  const Rect e = r.EnlargeByDistance(0.5);
  EXPECT_DOUBLE_EQ(e.x(), 1.5);
  EXPECT_DOUBLE_EQ(e.y(), 5.5);
  EXPECT_DOUBLE_EQ(e.length(), 3);
  EXPECT_DOUBLE_EQ(e.breadth(), 2);
}

TEST(RectTest, EnlargedRectangleCoversEuclideanBall) {
  // Any rectangle within Euclidean distance d overlaps the enlargement.
  const Rect r = Rect::FromXYLB(2, 5, 2, 1);
  const Rect near = Rect::FromXYLB(4.3, 4.7, 0.2, 0.2);  // 0.3 to the right.
  ASSERT_TRUE(WithinDistance(r, near, 0.5));
  EXPECT_TRUE(Overlaps(r.EnlargeByDistance(0.5), near));
  // The converse fails: corner rectangles overlap the enlargement but are
  // farther than d (the paper's r2' counter-example).
  const Rect corner = Rect::FromXYLB(4.4, 5.4, 0.05, 0.05);
  EXPECT_TRUE(Overlaps(r.EnlargeByDistance(0.5), corner));
  EXPECT_FALSE(WithinDistance(r, corner, 0.5));
}

TEST(RectTest, EnlargeByFactorKeepsCenter) {
  // §7.8.6: length and breadth scale by k about the center.
  const Rect r = Rect::FromXYLB(1, 4, 2, 2);
  const Rect e = r.EnlargeByFactor(1.5);
  EXPECT_EQ(e.center(), r.center());
  EXPECT_DOUBLE_EQ(e.length(), 3);
  EXPECT_DOUBLE_EQ(e.breadth(), 3);
  // Factor 1 is the identity.
  EXPECT_EQ(r.EnlargeByFactor(1.0), r);
}

TEST(RectTest, UnionCoversBoth) {
  const Rect a = Rect::FromXYLB(0, 1, 1, 1);
  const Rect b = Rect::FromXYLB(3, 4, 1, 1);
  const Rect u = Rect::Union(a, b);
  EXPECT_TRUE(u.Contains(a));
  EXPECT_TRUE(u.Contains(b));
  EXPECT_EQ(u, Rect(0, 0, 4, 4));
}

TEST(RectTest, ContainsPointAndRect) {
  const Rect r = Rect::FromXYLB(0, 2, 2, 2);
  EXPECT_TRUE(r.Contains(Point{1, 1}));
  EXPECT_TRUE(r.Contains(Point{0, 0}));  // Boundary inclusive.
  EXPECT_FALSE(r.Contains(Point{2.1, 1}));
  EXPECT_TRUE(r.Contains(Rect::FromXYLB(0.5, 1.5, 1, 1)));
  EXPECT_FALSE(r.Contains(Rect::FromXYLB(0.5, 1.5, 2, 1)));
}

}  // namespace
}  // namespace mwsj
