#include "stats/grid_histogram.h"

#include <algorithm>

namespace mwsj {

GridHistogram::GridHistogram(const GridPartition& grid,
                             std::span<const Rect> data, int64_t scale_to)
    : grid_(&grid) {
  const size_t n = static_cast<size_t>(grid.num_cells());
  counts_.assign(n, 0);
  avg_length_.assign(n, 0);
  avg_breadth_.assign(n, 0);
  for (const Rect& r : data) {
    const size_t c = static_cast<size_t>(grid.CellOfRect(r));
    counts_[c] += 1;
    avg_length_[c] += r.length();
    avg_breadth_[c] += r.breadth();
  }
  for (size_t c = 0; c < n; ++c) {
    if (counts_[c] > 0) {
      avg_length_[c] /= counts_[c];
      avg_breadth_[c] /= counts_[c];
    }
  }
  if (scale_to > 0 && !data.empty()) {
    const double factor =
        static_cast<double>(scale_to) / static_cast<double>(data.size());
    for (double& c : counts_) c *= factor;
  }
  for (double c : counts_) total_ += c;
}

namespace {

double EstimatePairsImpl(const GridHistogram& a, const GridHistogram& b,
                         double extra) {
  const GridPartition& grid = a.grid();
  double pairs = 0;
  for (CellId c = 0; c < grid.num_cells(); ++c) {
    const double n1 = a.CellCount(c);
    const double n2 = b.CellCount(c);
    if (n1 <= 0 || n2 <= 0) continue;
    const Rect cell = grid.CellRect(c);
    const double area = cell.Area();
    if (area <= 0) continue;
    // Uniformity within the cell: P(pair matches) ~ window / cell_area,
    // capped at 1 for windows larger than the cell.
    const double wx = a.CellAvgLength(c) + b.CellAvgLength(c) + extra;
    const double wy = a.CellAvgBreadth(c) + b.CellAvgBreadth(c) + extra;
    const double p = std::min(1.0, (wx * wy) / area);
    pairs += n1 * n2 * p;
  }
  return pairs;
}

}  // namespace

double GridHistogram::EstimateOverlapPairs(const GridHistogram& other) const {
  return EstimatePairsImpl(*this, other, 0);
}

double GridHistogram::EstimateRangePairs(const GridHistogram& other,
                                         double d) const {
  return EstimatePairsImpl(*this, other, 2 * d);
}

double EstimateJoinCardinality(const Query& query,
                               std::span<const GridHistogram> histograms) {
  double cardinality = 1;
  for (int r = 0; r < query.num_relations(); ++r) {
    cardinality *= histograms[static_cast<size_t>(r)].total();
  }
  for (const JoinCondition& c : query.conditions()) {
    const GridHistogram& left = histograms[static_cast<size_t>(c.left)];
    const GridHistogram& right = histograms[static_cast<size_t>(c.right)];
    const double pairs =
        c.predicate.is_overlap()
            ? left.EstimateOverlapPairs(right)
            : left.EstimateRangePairs(right, c.predicate.distance());
    const double denom = left.total() * right.total();
    cardinality *= denom > 0 ? std::min(1.0, pairs / denom) : 0;
  }
  return cardinality;
}

}  // namespace mwsj
