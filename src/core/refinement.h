#ifndef MWSJ_CORE_REFINEMENT_H_
#define MWSJ_CORE_REFINEMENT_H_

#include <vector>

#include "common/status.h"
#include "core/records.h"
#include "core/runner.h"
#include "geometry/polygon.h"
#include "query/query.h"

namespace mwsj {

/// The filter-and-refine pipeline of §1.1 for true polygon datasets.
///
/// The core algorithms evaluate the join on MBRs only (the *filter* step);
/// MBR agreement is necessary but not sufficient for the real geometries.
/// `RefineTuples` re-checks each candidate tuple against the exact polygon
/// predicates (edge intersection for overlap, exact boundary distance for
/// range) and keeps only true matches.
TupleBlock RefineTuples(const Query& query,
                        const std::vector<std::vector<Polygon>>& relations,
                        const TupleBlock& candidates);

/// Statistics of a filter+refine run: how selective the filter step was.
struct FilterRefineResult {
  TupleBlock tuples;             // True polygon-level matches.
  int64_t candidate_tuples = 0;  // MBR-level matches from the filter step.
  RunStats stats;                // Map-reduce statistics of the filter step.
};

/// Runs the full pipeline: computes MBRs, executes the distributed filter
/// join with `options`, then refines. This is the entry point applications
/// with non-rectangular spatial objects use (see examples/).
StatusOr<FilterRefineResult> RunFilterRefineJoin(
    const Query& query, const std::vector<std::vector<Polygon>>& relations,
    const RunnerOptions& options);

}  // namespace mwsj

#endif  // MWSJ_CORE_REFINEMENT_H_
