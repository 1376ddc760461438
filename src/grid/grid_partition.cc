#include "grid/grid_partition.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/str_format.h"

namespace mwsj {

namespace {

std::vector<double> EvenBounds(double lo, double hi, int n) {
  std::vector<double> bounds(static_cast<size_t>(n) + 1);
  const double width = (hi - lo) / n;
  for (int i = 0; i <= n; ++i) bounds[static_cast<size_t>(i)] = lo + i * width;
  bounds.back() = hi;  // Exact upper edge.
  return bounds;
}

// Interior boundaries at the quantiles of `values` (sorted in place),
// repaired to be strictly increasing within (lo, hi).
std::vector<double> QuantileBounds(double lo, double hi, int n,
                                   std::vector<double>& values) {
  if (values.size() < static_cast<size_t>(n) * 4) return EvenBounds(lo, hi, n);
  std::sort(values.begin(), values.end());
  std::vector<double> bounds(static_cast<size_t>(n) + 1);
  bounds[0] = lo;
  bounds[static_cast<size_t>(n)] = hi;
  for (int i = 1; i < n; ++i) {
    const size_t pos = values.size() * static_cast<size_t>(i) /
                       static_cast<size_t>(n);
    bounds[static_cast<size_t>(i)] = values[pos];
  }
  // Repair ties and out-of-range quantiles: enforce a minimal cell extent.
  const double min_gap = (hi - lo) / (n * 1024.0);
  bool ok = true;
  for (int i = 1; i <= n; ++i) {
    if (bounds[static_cast<size_t>(i)] <
        bounds[static_cast<size_t>(i - 1)] + min_gap) {
      bounds[static_cast<size_t>(i)] =
          bounds[static_cast<size_t>(i - 1)] + min_gap;
    }
  }
  if (bounds[static_cast<size_t>(n) - 1] >= hi) ok = false;
  bounds[static_cast<size_t>(n)] = hi;
  return ok ? bounds : EvenBounds(lo, hi, n);
}

// The one dimension check of every factory: positive, and few enough
// cells that num_cells() and every CellId fit in a CellId.
Status CheckDimensions(int64_t rows, int64_t cols) {
  if (rows <= 0 || cols <= 0) {
    return Status::InvalidArgument(StrFormat(
        "grid dimensions must be positive, got %lldx%lld",
        static_cast<long long>(rows), static_cast<long long>(cols)));
  }
  if (rows > std::numeric_limits<CellId>::max() / cols) {
    return Status::InvalidArgument(StrFormat(
        "grid of %lldx%lld cells exceeds the %d-cell limit",
        static_cast<long long>(rows), static_cast<long long>(cols),
        std::numeric_limits<CellId>::max()));
  }
  return Status::OK();
}

Status CheckSpace(const Rect& space) {
  if (!space.IsValid() || space.length() <= 0 || space.breadth() <= 0) {
    return Status::InvalidArgument("partitioned space must have positive area");
  }
  return Status::OK();
}

bool StrictlyIncreasing(const std::vector<double>& v) {
  for (size_t i = 1; i < v.size(); ++i) {
    if (!(v[i] > v[i - 1])) return false;
  }
  return true;
}

}  // namespace

GridPartition::GridPartition(std::vector<double> x_bounds,
                             std::vector<double> y_bounds)
    : space_(x_bounds.front(), y_bounds.front(), x_bounds.back(),
             y_bounds.back()),
      rows_(static_cast<int>(y_bounds.size()) - 1),
      cols_(static_cast<int>(x_bounds.size()) - 1),
      x_bounds_(std::move(x_bounds)),
      y_bounds_(std::move(y_bounds)) {
  auto even = [](const std::vector<double>& b) {
    const double width = (b.back() - b.front()) / (static_cast<double>(b.size()) - 1);
    for (size_t i = 1; i + 1 < b.size(); ++i) {
      if (std::abs(b[i] - (b.front() + width * static_cast<double>(i))) >
          1e-9 * (b.back() - b.front())) {
        return false;
      }
    }
    return true;
  };
  uniform_ = even(x_bounds_) && even(y_bounds_);
}

StatusOr<GridPartition> GridPartition::Create(const Rect& space, int rows,
                                              int cols) {
  MWSJ_RETURN_IF_ERROR(CheckDimensions(rows, cols));
  MWSJ_RETURN_IF_ERROR(CheckSpace(space));
  return GridPartition(EvenBounds(space.min_x(), space.max_x(), cols),
                       EvenBounds(space.min_y(), space.max_y(), rows));
}

StatusOr<GridPartition> GridPartition::CreateRectilinear(
    std::vector<double> x_bounds, std::vector<double> y_bounds) {
  if (x_bounds.size() < 2 || y_bounds.size() < 2) {
    return Status::InvalidArgument(
        "boundary vectors need at least two entries (the space edges)");
  }
  if (!StrictlyIncreasing(x_bounds) || !StrictlyIncreasing(y_bounds)) {
    return Status::InvalidArgument(
        "boundary positions must be strictly increasing");
  }
  MWSJ_RETURN_IF_ERROR(
      CheckDimensions(static_cast<int64_t>(y_bounds.size()) - 1,
                      static_cast<int64_t>(x_bounds.size()) - 1));
  return GridPartition(std::move(x_bounds), std::move(y_bounds));
}

StatusOr<GridPartition> GridPartition::CreateEquiDepth(
    const Rect& space, int rows, int cols, std::span<const Rect> sample) {
  MWSJ_RETURN_IF_ERROR(CheckDimensions(rows, cols));
  MWSJ_RETURN_IF_ERROR(CheckSpace(space));
  std::vector<double> xs, ys;
  xs.reserve(sample.size());
  ys.reserve(sample.size());
  for (const Rect& r : sample) {
    const Point p = r.start_point();
    if (space.Contains(p)) {
      xs.push_back(p.x);
      ys.push_back(p.y);
    }
  }
  return GridPartition(QuantileBounds(space.min_x(), space.max_x(), cols, xs),
                       QuantileBounds(space.min_y(), space.max_y(), rows, ys));
}

Rect GridPartition::CellRect(CellId id) const {
  const int col = ColOf(id);
  const int slab = rows_ - 1 - RowOf(id);  // Bottom-up index into y_bounds_.
  return Rect(x_bounds_[static_cast<size_t>(col)],
              y_bounds_[static_cast<size_t>(slab)],
              x_bounds_[static_cast<size_t>(col) + 1],
              y_bounds_[static_cast<size_t>(slab) + 1]);
}

CellId GridPartition::CellOfPoint(const Point& p) const {
  // Boundary x belongs to the LEFT cell, boundary y to the cell ABOVE (see
  // the class comment for why this tie-break is load-bearing).
  const auto x_it =
      std::lower_bound(x_bounds_.begin(), x_bounds_.end(), p.x);
  int col = static_cast<int>(x_it - x_bounds_.begin()) - 1;
  col = std::clamp(col, 0, cols_ - 1);

  const auto y_it =
      std::upper_bound(y_bounds_.begin(), y_bounds_.end(), p.y);
  int slab = static_cast<int>(y_it - y_bounds_.begin()) - 1;
  slab = std::clamp(slab, 0, rows_ - 1);
  return CellIdOf(rows_ - 1 - slab, col);
}

double GridPartition::QuadrantXLo(CellId id) const {
  const int col = ColOf(id);
  return col == 0 ? -std::numeric_limits<double>::infinity()
                  : x_bounds_[static_cast<size_t>(col)];
}

double GridPartition::QuadrantYHi(CellId id) const {
  const int row = RowOf(id);
  return row == 0 ? std::numeric_limits<double>::infinity()
                  : y_bounds_[static_cast<size_t>(rows_ - row)];
}

GridPartition::CellRange GridPartition::CellsOverlapping(const Rect& r) const {
  // Closed-cell semantics: a rectangle edge lying exactly on a grid line
  // touches the cells on both sides.
  const auto lo_it =
      std::lower_bound(x_bounds_.begin(), x_bounds_.end(), r.min_x());
  const int col_lo = std::clamp(
      static_cast<int>(lo_it - x_bounds_.begin()) - 1, 0, cols_ - 1);
  const auto hi_it =
      std::upper_bound(x_bounds_.begin(), x_bounds_.end(), r.max_x());
  const int col_hi = std::clamp(
      static_cast<int>(hi_it - x_bounds_.begin()) - 1, 0, cols_ - 1);

  const auto slab_lo_it =
      std::lower_bound(y_bounds_.begin(), y_bounds_.end(), r.min_y());
  const int slab_lo = std::clamp(
      static_cast<int>(slab_lo_it - y_bounds_.begin()) - 1, 0, rows_ - 1);
  const auto slab_hi_it =
      std::upper_bound(y_bounds_.begin(), y_bounds_.end(), r.max_y());
  const int slab_hi = std::clamp(
      static_cast<int>(slab_hi_it - y_bounds_.begin()) - 1, 0, rows_ - 1);

  return CellRange{rows_ - 1 - slab_hi, rows_ - 1 - slab_lo, col_lo, col_hi};
}

std::string GridPartition::ToString() const {
  return StrFormat("GridPartition(%dx%d%s over %s)", rows_, cols_,
                   uniform_ ? "" : ", rectilinear",
                   space_.ToString().c_str());
}

}  // namespace mwsj
