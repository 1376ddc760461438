#ifndef MWSJ_LOCALJOIN_BRUTE_FORCE_H_
#define MWSJ_LOCALJOIN_BRUTE_FORCE_H_

#include <vector>

#include "geometry/rect.h"
#include "localjoin/tuple_block.h"
#include "query/query.h"

namespace mwsj {

/// Reference evaluator: computes the complete multi-way join output by
/// plain backtracking over the full datasets, with no grid, no map-reduce,
/// and no shared code with the distributed algorithms beyond the output
/// block (its rows come out in order, so SortTuples only checks that).
/// The equivalence test suite treats this as ground truth.
///
/// `relations[r]` is the full dataset of query relation r; rectangle ids
/// are positions in the vector. Returns the tuples sorted
/// lexicographically (deterministic for comparisons).
TupleBlock BruteForceJoin(const Query& query,
                          const std::vector<std::vector<Rect>>& relations);

}  // namespace mwsj

#endif  // MWSJ_LOCALJOIN_BRUTE_FORCE_H_
