#ifndef MWSJ_GRID_GRID_PARTITION_H_
#define MWSJ_GRID_GRID_PARTITION_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "geometry/rect.h"

namespace mwsj {

/// Identifier of a partition-cell. Cells are numbered row-major starting at
/// 0 from the top-left cell (the paper numbers the same layout 1-based;
/// tests that replay the paper's figures add 1).
using CellId = int32_t;

/// The rectilinear partitioning of §4: the 2D space [x0, xn) x [y0, yn) is
/// divided into a rows x cols grid of disjoint partition-cells —
/// "partition-cells in each row have the same breadth and partition-cells
/// in each column have the same length", i.e. the grid lines are shared
/// but their spacing may be non-uniform. Each cell doubles as a reducer in
/// the map-reduce jobs (§5.1), so the number of cells is the number of
/// reducers.
///
/// `Create` builds the paper's equally-spaced grid;
/// `CreateRectilinear` accepts arbitrary boundary positions, and
/// `CreateEquiDepth` derives them from a data sample so that each column
/// (and each row) receives roughly the same number of rectangle start
/// points — a load-balancing extension for skewed datasets like road
/// networks.
///
/// Ownership convention (for operations that must assign a *unique* cell,
/// like Project and the duplicate-avoidance reference point): a point on a
/// vertical boundary belongs to the cell on its LEFT, a point on a
/// horizontal boundary to the cell ABOVE (border cells absorb the space
/// edges). This is the tie-break under which the §6.2 duplicate-avoidance
/// proof closes even when start points lie exactly on grid lines: the
/// reference point (u_r.x, u_l.y) then provably lands in the start cell of
/// every projected (unmarked) member — see the correctness notes in
/// core/controlled_replicate.h. A rectangle's start cell still overlaps
/// the rectangle under this convention, because cells are closed sets.
/// Geometric operations (Split, cell distance) treat cells as closed
/// rectangles, exactly as the paper's "at least one point in common".
class GridPartition {
 public:
  /// Builds an equally-spaced rows x cols grid over `space`. Returns
  /// InvalidArgument for non-positive dimensions, more cells than a CellId
  /// can number (INT32_MAX), or an empty space; the other factories check
  /// their dimensions the same way.
  static StatusOr<GridPartition> Create(const Rect& space, int rows, int cols);

  /// Builds a grid from explicit boundary positions. `x_bounds` has
  /// cols+1 strictly increasing values (the vertical grid lines including
  /// both space edges); `y_bounds` has rows+1 strictly increasing values
  /// (the horizontal lines, bottom edge first).
  static StatusOr<GridPartition> CreateRectilinear(
      std::vector<double> x_bounds, std::vector<double> y_bounds);

  /// Builds a rows x cols grid over `space` whose boundary positions are
  /// the column/row quantiles of the sample's start points, so reducer
  /// input is balanced under spatial skew. Falls back to equal spacing
  /// when the sample is too small; quantile ties (heavily duplicated
  /// coordinates) collapse to equal spacing locally.
  static StatusOr<GridPartition> CreateEquiDepth(const Rect& space, int rows,
                                                 int cols,
                                                 std::span<const Rect> sample);

  const Rect& space() const { return space_; }
  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int num_cells() const { return rows_ * cols_; }
  /// True when every cell has the same dimensions.
  bool is_uniform() const { return uniform_; }

  CellId CellIdOf(int row, int col) const { return row * cols_ + col; }
  int RowOf(CellId id) const { return id / cols_; }
  int ColOf(CellId id) const { return id % cols_; }

  /// The closed rectangle covered by cell `id`.
  Rect CellRect(CellId id) const;

  /// The unique cell owning point `p` (see ownership convention above).
  /// Points outside the space clamp to the nearest border cell.
  CellId CellOfPoint(const Point& p) const;

  /// The paper's "cell of a rectangle" c_u: the cell owning the start
  /// point (top-left vertex) of `r`.
  CellId CellOfRect(const Rect& r) const { return CellOfPoint(r.start_point()); }

  /// Row/col index ranges (inclusive) of cells that share at least one
  /// point with `r`, i.e. the Split target set.
  struct CellRange {
    int row_lo;
    int row_hi;
    int col_lo;
    int col_hi;
  };
  CellRange CellsOverlapping(const Rect& r) const;

  /// Minimum Euclidean distance between (closed) cell `id` and rectangle
  /// `r` — the paper's dist(c, r) of equation (2).
  double DistanceToCell(CellId id, const Rect& r) const {
    return MinDistance(CellRect(id), r);
  }

  /// True when `cell` lies in the fourth quadrant with respect to `anchor`
  /// (§4): cell.x >= anchor.x and cell.y <= anchor.y, i.e. same-or-greater
  /// column and same-or-greater row.
  bool InFourthQuadrant(CellId cell, CellId anchor) const {
    return ColOf(cell) >= ColOf(anchor) && RowOf(cell) >= RowOf(anchor);
  }

  /// The open half-planes of cell `id`'s fourth quadrant under
  /// CellOfPoint: for a finite point p,
  ///   ColOf(CellOfPoint(p)) >= ColOf(id)  iff  p.x > QuadrantXLo(id),
  ///   RowOf(CellOfPoint(p)) >= RowOf(id)  iff  p.y < QuadrantYHi(id).
  /// They are the cell's left and top grid lines (the ownership convention
  /// gives a boundary point to the cell left of / above it), and −∞ / +∞
  /// on the first column / row, which also absorb points outside the
  /// space. The §6.2 owner of a tuple is (max member row, max member
  /// column), so these are the owner window of the multiway local join.
  double QuadrantXLo(CellId id) const;
  double QuadrantYHi(CellId id) const;

  std::string ToString() const;

 private:
  GridPartition(std::vector<double> x_bounds, std::vector<double> y_bounds);

  Rect space_;
  int rows_ = 0;
  int cols_ = 0;
  bool uniform_ = true;
  // Vertical grid lines, ascending: x_bounds_[0] = space min_x,
  // x_bounds_[cols] = space max_x.
  std::vector<double> x_bounds_;
  // Horizontal grid lines, ascending: y_bounds_[0] = space min_y,
  // y_bounds_[rows] = space max_y. Row r (counted from the top) spans
  // [y_bounds_[rows - 1 - r], y_bounds_[rows - r]].
  std::vector<double> y_bounds_;
};

}  // namespace mwsj

#endif  // MWSJ_GRID_GRID_PARTITION_H_
