// Cell-transform kernels: one call per input rectangle per round. Output
// cells append into caller-owned vectors; no naked new/malloc, no
// std::function — enforced by tools/mwsj_check.py via the MWSJ_ALLOC_FREE /
// MWSJ_DETERMINISTIC annotations in transform.h. They touch no shared
// state (no counters, no locks).
#include "grid/transform.h"

#include <algorithm>
#include <cmath>

namespace mwsj {

namespace {

// Distance between intervals [a_lo, a_hi] and [b_lo, b_hi].
inline double AxisGap(double a_lo, double a_hi, double b_lo, double b_hi) {
  if (a_hi < b_lo) return b_lo - a_hi;
  if (b_hi < a_lo) return a_lo - b_hi;
  return 0;
}

}  // namespace

double CellRectDistance(const GridPartition& grid, CellId cell, const Rect& r,
                        DistanceMetric metric) {
  const Rect c = grid.CellRect(cell);
  const double dx = AxisGap(c.min_x(), c.max_x(), r.min_x(), r.max_x());
  const double dy = AxisGap(c.min_y(), c.max_y(), r.min_y(), r.max_y());
  if (metric == DistanceMetric::kEuclidean) return std::sqrt(dx * dx + dy * dy);
  return std::max(dx, dy);
}

double CellRectMaxMinDistance(const GridPartition& grid, CellId cell,
                              const Rect& r) {
  const Rect c = grid.CellRect(cell);
  // Worst-case per-axis gap from a point of the cell interval to the
  // rectangle interval: max over x in [c_lo, c_hi] of
  // max(0, r_lo - x, x - r_hi) = max(0, r_lo - c_lo, c_hi - r_hi).
  const double gx =
      std::max({0.0, r.min_x() - c.min_x(), c.max_x() - r.max_x()});
  const double gy =
      std::max({0.0, r.min_y() - c.min_y(), c.max_y() - r.max_y()});
  // hypot, like MinDistance, to stay overflow-safe for huge coordinates.
  return std::hypot(gx, gy);
}

CellId ProjectCell(const GridPartition& grid, const Rect& u) {
  return grid.CellOfRect(u);
}

void SplitCells(const GridPartition& grid, const Rect& u,
                std::vector<CellId>* out) {
  const auto range = grid.CellsOverlapping(u);
  for (int row = range.row_lo; row <= range.row_hi; ++row) {
    for (int col = range.col_lo; col <= range.col_hi; ++col) {
      // mwsj-check: allow(alloc-free-reach): caller-owned cell buffer,
      // cleared and reused across records; growth amortizes to zero.
      out->push_back(grid.CellIdOf(row, col));
    }
  }
}

void ReplicateF1Cells(const GridPartition& grid, const Rect& u,
                      std::vector<CellId>* out) {
  const CellId anchor = grid.CellOfRect(u);
  const int row0 = grid.RowOf(anchor);
  const int col0 = grid.ColOf(anchor);
  for (int row = row0; row < grid.rows(); ++row) {
    for (int col = col0; col < grid.cols(); ++col) {
      // mwsj-check: allow(alloc-free-reach): caller-owned reused buffer.
      out->push_back(grid.CellIdOf(row, col));
    }
  }
}

int64_t CountReplicateF1Cells(const GridPartition& grid, const Rect& u) {
  const CellId anchor = grid.CellOfRect(u);
  const int64_t rows = grid.rows() - grid.RowOf(anchor);
  const int64_t cols = grid.cols() - grid.ColOf(anchor);
  return rows * cols;
}

void ReplicateF2Cells(const GridPartition& grid, const Rect& u, double d,
                      DistanceMetric metric, std::vector<CellId>* out) {
  const CellId anchor = grid.CellOfRect(u);
  const int row0 = grid.RowOf(anchor);
  const int col0 = grid.ColOf(anchor);
  for (int row = row0; row < grid.rows(); ++row) {
    // Within one row, distance grows monotonically with the column once the
    // cell is strictly right of the rectangle, so we can stop early.
    bool row_had_match = false;
    for (int col = col0; col < grid.cols(); ++col) {
      const CellId cell = grid.CellIdOf(row, col);
      if (CellRectDistance(grid, cell, u, metric) <= d) {
        // mwsj-check: allow(alloc-free-reach): caller-owned reused buffer.
        out->push_back(cell);
        row_had_match = true;
      } else if (row_had_match) {
        break;
      }
    }
    // Distance also grows monotonically with the row below the rectangle;
    // if this row produced nothing, deeper rows cannot either.
    if (!row_had_match) break;
  }
}

void EnlargedSplitCells(const GridPartition& grid, const Rect& u, double d,
                        std::vector<CellId>* out) {
  SplitCells(grid, u.EnlargeByDistance(d), out);
}

}  // namespace mwsj
