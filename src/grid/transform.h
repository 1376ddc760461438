#ifndef MWSJ_GRID_TRANSFORM_H_
#define MWSJ_GRID_TRANSFORM_H_

#include <cstdint>
#include <vector>

#include "common/effects.h"
#include "geometry/rect.h"
#include "grid/grid_partition.h"

namespace mwsj {

/// Metric used by the f2 replication function's cell-distance test.
///
/// The paper states f2 with the Euclidean dist(c, u) <= d (§4). For
/// C-Rep-L, the replication extent must also cover the duplicate-avoidance
/// cell of every output tuple; the per-axis (Chebyshev / L-infinity) test is
/// the provably safe variant because the §7.9/§8 path bounds constrain each
/// axis separately (see query/bounds.h). Both are provided; algorithms
/// default to the safe one and benches may select the paper's.
enum class DistanceMetric {
  kEuclidean,
  kChebyshev,
};

/// Minimum distance between cell `cell` and rectangle `r` under `metric`.
double CellRectDistance(const GridPartition& grid, CellId cell, const Rect& r,
                        DistanceMetric metric);

/// Maximum over the points p of (closed) cell `cell` of the minimum
/// Euclidean distance from p to rectangle `r` — the MaxMinDistance bound
/// of the distributed kNN join's round 1 (queries/knn_mr.h): any k rects
/// with the k smallest MaxMinDistance values are within that k-th value of
/// *every* point of the cell, so it upper-bounds each in-cell point's true
/// k-th neighbor distance. Exact (not an estimate): over a box domain the
/// two axis gaps attain their maxima independently, so the maximizing
/// point is a cell corner and the value is the hypotenuse of the per-axis
/// worst-case gaps.
double CellRectMaxMinDistance(const GridPartition& grid, CellId cell,
                              const Rect& r);

/// Project(u, C) — §4: the single cell containing the start point of `u`.
///
/// The transforms below run once per input rectangle per round inside map
/// functions: MWSJ_ALLOC_FREE (cells append into a caller-owned, reused
/// vector) and MWSJ_DETERMINISTIC (row-major cell order feeds the emit
/// stream; tools/mwsj_check.py enforces both transitively). They are pure
/// functions with no shared state. How often a round calls each of them
/// is a function of its input (e.g. one SplitCells per round-1 record), so
/// the algorithms derive those counts from the job's JobStats rather than
/// counting calls.
MWSJ_ALLOC_FREE MWSJ_DETERMINISTIC CellId ProjectCell(
    const GridPartition& grid, const Rect& u);

/// Split(u, C) — §4: every cell sharing at least one point with `u`,
/// appended to `*out` in row-major order.
MWSJ_ALLOC_FREE MWSJ_DETERMINISTIC void SplitCells(const GridPartition& grid,
                                                   const Rect& u,
                                                   std::vector<CellId>* out);

/// Replicate(u, C, f1) — §4: every cell in the fourth quadrant with respect
/// to `u` (cells right of / below the start cell of `u`, inclusive),
/// appended to `*out` in row-major order.
MWSJ_ALLOC_FREE MWSJ_DETERMINISTIC void ReplicateF1Cells(
    const GridPartition& grid, const Rect& u, std::vector<CellId>* out);

/// Replicate(u, C, f2) — §4: the f1 cells that are additionally within
/// distance `d` of `u` under `metric`, appended to `*out`.
MWSJ_ALLOC_FREE MWSJ_DETERMINISTIC void ReplicateF2Cells(
    const GridPartition& grid, const Rect& u, double d, DistanceMetric metric,
    std::vector<CellId>* out);

/// Cells overlapping the rectangle enlarged by `d` — the routing used for
/// the replicated side of a 2-way range join (§5.3).
MWSJ_ALLOC_FREE MWSJ_DETERMINISTIC void EnlargedSplitCells(
    const GridPartition& grid, const Rect& u, double d,
    std::vector<CellId>* out);

/// Number of cells f1 would produce, without materializing them.
int64_t CountReplicateF1Cells(const GridPartition& grid, const Rect& u);

}  // namespace mwsj

#endif  // MWSJ_GRID_TRANSFORM_H_
