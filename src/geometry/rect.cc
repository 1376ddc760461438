#include "geometry/rect.h"

#include <algorithm>
#include <cmath>

#include "common/str_format.h"

namespace mwsj {

double Rect::Diagonal() const {
  const double l = length();
  const double b = breadth();
  return std::sqrt(l * l + b * b);
}

bool Rect::IsFinite() const {
  return std::isfinite(min_x_) && std::isfinite(min_y_) &&
         std::isfinite(max_x_) && std::isfinite(max_y_);
}

Rect Rect::EnlargeByFactor(double k) const {
  const double grow_x = length() * (k - 1) / 2;
  const double grow_y = breadth() * (k - 1) / 2;
  return Rect(min_x_ - grow_x, min_y_ - grow_y, max_x_ + grow_x,
              max_y_ + grow_y);
}

std::string Rect::ToString() const {
  return StrFormat("Rect(x=%g, y=%g, l=%g, b=%g)", x(), y(), length(),
                   breadth());
}

namespace {

// Distance between intervals [a_lo, a_hi] and [b_lo, b_hi] (0 if they
// intersect).
inline double AxisGap(double a_lo, double a_hi, double b_lo, double b_hi) {
  if (a_hi < b_lo) return b_lo - a_hi;
  if (b_hi < a_lo) return a_lo - b_hi;
  return 0;
}

}  // namespace

double MinDistanceSquared(const Rect& a, const Rect& b) {
  const double dx = AxisGap(a.min_x(), a.max_x(), b.min_x(), b.max_x());
  const double dy = AxisGap(a.min_y(), a.max_y(), b.min_y(), b.max_y());
  return dx * dx + dy * dy;
}

double MinDistanceSquared(const Rect& r, const Point& p) {
  const double dx = AxisGap(r.min_x(), r.max_x(), p.x, p.x);
  const double dy = AxisGap(r.min_y(), r.max_y(), p.y, p.y);
  return dx * dx + dy * dy;
}

double MinDistance(const Rect& a, const Rect& b) {
  // hypot, not sqrt(MinDistanceSquared): gaps beyond ~1.34e154 overflow the
  // squared form to inf, and callers (kNN ordering, the huge-d fallback in
  // WithinDistance) need the true magnitude at any representable distance.
  const double dx = AxisGap(a.min_x(), a.max_x(), b.min_x(), b.max_x());
  const double dy = AxisGap(a.min_y(), a.max_y(), b.min_y(), b.max_y());
  return std::hypot(dx, dy);
}

double MinDistance(const Rect& r, const Point& p) {
  const double dx = AxisGap(r.min_x(), r.max_x(), p.x, p.x);
  const double dy = AxisGap(r.min_y(), r.max_y(), p.y, p.y);
  return std::hypot(dx, dy);
}

bool WithinDistance(const Rect& a, const Rect& b, double d) {
  if (d < 0) return false;
  const double d_sq = d * d;
  if (!std::isnormal(d_sq)) {
    // d·d overflowed (d > ~1.34e154) or underflowed (d < ~1.5e-154, d = 0
    // included): the squared comparison would read inf <= inf, or a
    // subnormal gap·gap <= d·d, for gaps beyond d and overclaim. The hypot
    // form is exact there.
    return MinDistance(a, b) <= d;
  }
  return MinDistanceSquared(a, b) <= d_sq;
}

std::optional<Rect> Intersection(const Rect& a, const Rect& b) {
  if (!Overlaps(a, b)) return std::nullopt;
  return Rect(std::max(a.min_x(), b.min_x()), std::max(a.min_y(), b.min_y()),
              std::min(a.max_x(), b.max_x()), std::min(a.max_y(), b.max_y()));
}

}  // namespace mwsj
