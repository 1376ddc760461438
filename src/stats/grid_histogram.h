#ifndef MWSJ_STATS_GRID_HISTOGRAM_H_
#define MWSJ_STATS_GRID_HISTOGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "grid/grid_partition.h"
#include "query/query.h"

namespace mwsj {

/// A grid histogram over a rectangle dataset: per-cell counts of start
/// points plus the average rectangle dimensions per cell. Built from a
/// (sample of a) relation, it supports the position-aware cardinality
/// estimates the CLI's `--estimate` mode and the bench reports use.
class GridHistogram {
 public:
  /// Builds the histogram of `data` over `grid`. `scale_to` rescales the
  /// counts to a full population size (e.g. sample 10K of 1M rectangles
  /// and pass scale_to = 1'000'000); 0 keeps raw counts.
  GridHistogram(const GridPartition& grid, std::span<const Rect> data,
                int64_t scale_to = 0);

  const GridPartition& grid() const { return *grid_; }
  double total() const { return total_; }

  /// Estimated number of rectangles starting in cell `c`.
  double CellCount(CellId c) const {
    return counts_[static_cast<size_t>(c)];
  }
  /// Average rectangle length/breadth among rectangles starting in `c`
  /// (0 for empty cells).
  double CellAvgLength(CellId c) const {
    return avg_length_[static_cast<size_t>(c)];
  }
  double CellAvgBreadth(CellId c) const {
    return avg_breadth_[static_cast<size_t>(c)];
  }

  /// Estimated number of pairs of `this` x `other` satisfying an overlap
  /// predicate, assuming per-cell uniformity: for each cell, pair count ~
  /// n1 * n2 * window / cell_area with window = (l1+l2)(b1+b2). The two
  /// histograms must share the same grid.
  double EstimateOverlapPairs(const GridHistogram& other) const;

  /// Same for a range predicate with distance d (window grows by 2d on
  /// each axis).
  double EstimateRangePairs(const GridHistogram& other, double d) const;

 private:
  const GridPartition* grid_;
  std::vector<double> counts_;
  std::vector<double> avg_length_;
  std::vector<double> avg_breadth_;
  double total_ = 0;
};

/// Estimated output cardinality of a multi-way join, combining the
/// per-condition pair estimates over a per-relation histogram set with the
/// independence assumption (cardinality = prod(sizes) * prod(pair_sel)).
/// Histograms must share one grid and be index-aligned with the query's
/// relations.
double EstimateJoinCardinality(const Query& query,
                               std::span<const GridHistogram> histograms);

}  // namespace mwsj

#endif  // MWSJ_STATS_GRID_HISTOGRAM_H_
