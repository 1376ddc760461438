#ifndef MWSJ_GEOMETRY_RECT_H_
#define MWSJ_GEOMETRY_RECT_H_

#include <optional>
#include <string>

#include "geometry/point.h"

namespace mwsj {

/// An axis-aligned rectangle (an MBR in the paper's object model, §1.1).
///
/// The paper represents a rectangle as (x, y, l, b): (x, y) is the top-left
/// vertex — the *start point* — and the rectangle extends l units to the
/// right and b units downward. Internally we store the four edge
/// coordinates, which makes every predicate branch-free; `FromXYLB` and the
/// paper-view accessors translate to and from the paper's notation.
///
/// Rectangles are closed sets: two rectangles that share only a boundary
/// point overlap, and a degenerate rectangle (l == 0 or b == 0) is a valid
/// segment/point MBR. This matches the filter-step semantics where false
/// positives are acceptable and false negatives are not.
class Rect {
 public:
  Rect() = default;
  Rect(double min_x, double min_y, double max_x, double max_y)
      : min_x_(min_x), min_y_(min_y), max_x_(max_x), max_y_(max_y) {}

  /// Builds a rectangle from the paper's (x, y, l, b) notation:
  /// top-left vertex (x, y), length l (along +x), breadth b (along -y).
  static Rect FromXYLB(double x, double y, double l, double b) {
    return Rect(x, y - b, x + l, y);
  }

  /// Builds the (degenerate) rectangle covering a single point.
  static Rect FromPoint(const Point& p) { return Rect(p.x, p.y, p.x, p.y); }

  double min_x() const { return min_x_; }
  double min_y() const { return min_y_; }
  double max_x() const { return max_x_; }
  double max_y() const { return max_y_; }

  /// The paper's start point: the top-left vertex (min x, max y).
  Point start_point() const { return Point{min_x_, max_y_}; }

  /// The paper's (x, y, l, b) view.
  double x() const { return min_x_; }
  double y() const { return max_y_; }
  double length() const { return max_x_ - min_x_; }
  double breadth() const { return max_y_ - min_y_; }

  Point center() const {
    return Point{(min_x_ + max_x_) / 2, (min_y_ + max_y_) / 2};
  }

  double Area() const { return length() * breadth(); }

  /// Length of the rectangle's diagonal; the paper's d_max bounds
  /// (§7.9, §8) are stated in terms of this quantity.
  double Diagonal() const;

  /// True when the rectangle's extents are ordered (min <= max on both
  /// axes). Degenerate (zero-area) rectangles are valid. A rectangle with
  /// any NaN coordinate is invalid (every comparison on NaN is false).
  bool IsValid() const { return min_x_ <= max_x_ && min_y_ <= max_y_; }

  /// True when all four coordinates are finite (no NaN, no ±inf). The
  /// branch-free predicates silently return false on NaN and the grid
  /// transforms overflow on inf, so ingest rejects non-finite rectangles.
  bool IsFinite() const;

  bool Contains(const Point& p) const {
    return p.x >= min_x_ && p.x <= max_x_ && p.y >= min_y_ && p.y <= max_y_;
  }

  bool Contains(const Rect& other) const {
    return other.min_x_ >= min_x_ && other.max_x_ <= max_x_ &&
           other.min_y_ >= min_y_ && other.max_y_ <= max_y_;
  }

  /// Grows the rectangle by `d` on every side — the paper's r^e(d)
  /// (§5.3): top-left moves to (x - d, y + d), bottom-right to
  /// (x + d, y - d). The enlarged rectangle contains every point within
  /// L-infinity distance d, a superset of the Euclidean d-ball, so routing
  /// through it never loses range-join candidates.
  Rect EnlargeByDistance(double d) const {
    return Rect(min_x_ - d, min_y_ - d, max_x_ + d, max_y_ + d);
  }

  /// Scales length and breadth by factor `k` about the center — the
  /// paper's "enlarging a rectangle by factor k" used to densify the
  /// California road data (§7.8.6).
  Rect EnlargeByFactor(double k) const;

  /// Smallest rectangle covering both inputs.
  static Rect Union(const Rect& a, const Rect& b) {
    return Rect(a.min_x_ < b.min_x_ ? a.min_x_ : b.min_x_,
                a.min_y_ < b.min_y_ ? a.min_y_ : b.min_y_,
                a.max_x_ > b.max_x_ ? a.max_x_ : b.max_x_,
                a.max_y_ > b.max_y_ ? a.max_y_ : b.max_y_);
  }

  std::string ToString() const;

  friend bool operator==(const Rect& a, const Rect& b) {
    return a.min_x_ == b.min_x_ && a.min_y_ == b.min_y_ &&
           a.max_x_ == b.max_x_ && a.max_y_ == b.max_y_;
  }

 private:
  double min_x_ = 0;
  double min_y_ = 0;
  double max_x_ = 0;
  double max_y_ = 0;
};

/// True when the closed rectangles share at least one point — the paper's
/// Overlap(r1, r2) predicate.
inline bool Overlaps(const Rect& a, const Rect& b) {
  return a.min_x() <= b.max_x() && b.min_x() <= a.max_x() &&
         a.min_y() <= b.max_y() && b.min_y() <= a.max_y();
}

/// Squared minimum Euclidean distance between the closed rectangles (0 when
/// they overlap). This is the primitive the hot-path predicates compare
/// against: dx² + dy² and d² are each a single rounding away from exact, so
/// rectangles at exactly distance d compare equal — the sqrt in MinDistance
/// can round the boundary either way (sqrt(fl(d·d)) ≠ d for many doubles).
double MinDistanceSquared(const Rect& a, const Rect& b);

/// Squared minimum Euclidean distance from rectangle `r` to point `p`.
double MinDistanceSquared(const Rect& r, const Point& p);

/// Minimum Euclidean distance between the closed rectangles (0 when they
/// overlap). Use for ordering (kNN); predicates compare the squared form.
double MinDistance(const Rect& a, const Rect& b);

/// Minimum Euclidean distance from rectangle `r` to point `p`.
double MinDistance(const Rect& r, const Point& p);

/// The paper's Range(r1, r2, d) predicate: true when some point of r1 is
/// within distance d of some point of r2, i.e. MinDistance <= d.
///
/// Compares MinDistanceSquared against d·d so exact-distance-d ties are
/// decided without a sqrt (which both misrounds the boundary and costs a
/// hard-to-pipeline instruction on the filter hot path). A negative d can
/// match nothing. When d·d is not a normal double (d above ~1.34e154, where
/// it overflows, or below ~1.5e-154, where gap·gap and d·d can underflow to
/// the same value), it compares MinDistance, the hypot form, against d.
bool WithinDistance(const Rect& a, const Rect& b, double d);

/// Intersection rectangle, or nullopt when the rectangles do not overlap.
/// The intersection of touching rectangles is a degenerate rectangle whose
/// start point drives duplicate avoidance (§5.2).
std::optional<Rect> Intersection(const Rect& a, const Rect& b);

}  // namespace mwsj

#endif  // MWSJ_GEOMETRY_RECT_H_
