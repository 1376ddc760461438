#ifndef MWSJ_CORE_ALL_REPLICATE_H_
#define MWSJ_CORE_ALL_REPLICATE_H_

#include <vector>

#include "common/execution_context.h"
#include "common/status.h"
#include "core/records.h"
#include "grid/grid_partition.h"
#include "query/query.h"

namespace mwsj {

/// The All-Replicate baseline (§6.1): a single map-reduce job that
/// replicates *every* rectangle to all fourth-quadrant reducers with f1 and
/// computes the multi-way join at each reducer, deduplicated with the §6.2
/// reference-point rule. Correct but communication-heavy — each rectangle
/// is shipped to O(cells) reducers whether or not it can contribute to any
/// output tuple, which is exactly the redundancy Controlled-Replicate
/// removes. It is Controlled-Replicate's join round with every rectangle
/// marked, and is defined beside it in core/controlled_replicate.cc.
/// `count_only` suppresses tuple materialization (JoinRunResult::tuples
/// stays empty; num_tuples is still exact).
StatusOr<JoinRunResult> AllReplicateJoin(
    const Query& query, const GridPartition& grid,
    const std::vector<std::vector<Rect>>& relations, bool count_only = false,
    const ExecutionContext& ctx = ExecutionContext());

}  // namespace mwsj

#endif  // MWSJ_CORE_ALL_REPLICATE_H_
