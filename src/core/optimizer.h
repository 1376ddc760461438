#ifndef MWSJ_CORE_OPTIMIZER_H_
#define MWSJ_CORE_OPTIMIZER_H_

#include <vector>

#include "geometry/rect.h"
#include "query/query.h"

namespace mwsj {

/// Per-condition join selectivities estimated from uniform samples (up to
/// 2000 rectangles per relation, drawn with a fixed seed, so the estimate
/// is deterministic): result[i] estimates P(predicate_i holds) for a
/// random rectangle pair of the condition's relations.
std::vector<double> EstimateSelectivities(
    const Query& query, const std::vector<std::vector<Rect>>& relations);

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
