// Reference-point dedup kernels: called once per candidate pair/tuple, so
// they must stay free of std::function indirection and heap allocation —
// enforced by tools/mwsj_check.py via the MWSJ_ALLOC_FREE /
// MWSJ_DETERMINISTIC annotations in dedup.h. They touch no shared state
// (no counters, no locks): the reducers count their checks in locals.
#include "core/dedup.h"

#include <algorithm>

namespace mwsj {

bool OwnsOverlapPair(const GridPartition& grid, CellId cell, const Rect& r1,
                     const Rect& r2) {
  const std::optional<Rect> overlap = Intersection(r1, r2);
  if (!overlap.has_value()) return false;
  return grid.CellOfPoint(overlap->start_point()) == cell;
}

bool OwnsRangePair(const GridPartition& grid, CellId cell, const Rect& r1,
                   const Rect& r2, double d) {
  const std::optional<Rect> overlap = Intersection(r1.EnlargeByDistance(d), r2);
  if (!overlap.has_value()) return false;
  return grid.CellOfPoint(overlap->start_point()) == cell;
}

Point MultiwayReferencePoint(std::span<const Rect* const> members) {
  double max_start_x = members[0]->start_point().x;
  double min_start_y = members[0]->start_point().y;
  for (const Rect* r : members.subspan(1)) {
    max_start_x = std::max(max_start_x, r->start_point().x);
    min_start_y = std::min(min_start_y, r->start_point().y);
  }
  return Point{max_start_x, min_start_y};
}

bool OwnsTuple(const GridPartition& grid, CellId cell,
               std::span<const Rect* const> members) {
  return grid.CellOfPoint(MultiwayReferencePoint(members)) == cell;
}

}  // namespace mwsj
