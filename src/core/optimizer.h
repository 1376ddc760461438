#ifndef MWSJ_CORE_OPTIMIZER_H_
#define MWSJ_CORE_OPTIMIZER_H_

#include <vector>

#include "geometry/rect.h"
#include "query/query.h"

namespace mwsj {

/// Per-condition join selectivities: result[i] estimates P(predicate_i
/// holds) for a random rectangle pair of the condition's relations. Each
/// condition indexes a sample of up to 2000 rectangles of its larger side
/// (drawn with a fixed seed, so the estimate is deterministic) and probes
/// it with every rectangle of the smaller side; a condition with a side of
/// 2000 or fewer rectangles is counted exactly. The count is smoothed by
/// +0.5 so it stays positive when no probe matches.
std::vector<double> EstimateSelectivities(
    const Query& query, const std::vector<std::vector<Rect>>& relations);

/// Estimated output cardinality of the whole join: the product of the
/// relation sizes and of EstimateSelectivities (conditions taken as
/// independent). This is the one cardinality model of the repository: it
/// backs `mwsj_join --estimate`, and OptimizeCascadeOrder multiplies the
/// same factors out step by step.
double EstimateCardinality(const Query& query,
                           const std::vector<std::vector<Rect>>& relations);

/// Chooses the 2-way Cascade evaluation order (see CascadeJoin) that
/// minimizes the estimated total intermediate-result cardinality — the
/// quantity §6.4 identifies as Cascade's cost driver. The paper assumes
/// the optimal order is known (footnote 1); this automates the choice by
/// estimating per-condition selectivities from samples and enumerating
/// every connectivity-valid order (the paper's queries have 3-4 relations,
/// so exhaustive enumeration is exact and cheap; beyond 9 relations a
/// greedy fallback is used).
///
/// The returned order is always valid input for CascadeJoin /
/// RunnerOptions::cascade_order.
std::vector<int> OptimizeCascadeOrder(
    const Query& query, const std::vector<std::vector<Rect>>& relations);

}  // namespace mwsj

#endif  // MWSJ_CORE_OPTIMIZER_H_
