#ifndef MWSJ_CORE_VERIFICATION_H_
#define MWSJ_CORE_VERIFICATION_H_

#include <vector>

#include "common/status.h"
#include "core/records.h"
#include "query/query.h"

namespace mwsj {

/// Post-hoc validation of a join result against the query and its inputs.
/// Used by tests and by `mwsj_join --verify`; the checks are independent
/// of any algorithm implementation:
///
///  * every tuple references valid ids;
///  * every tuple satisfies every query condition (soundness);
///  * no tuple appears twice (duplicate-freedom — the §5.2/§6.2 rules'
///    promise);
///  * optionally, completeness against an expected tuple count.
///
/// Returns OK or FailedPrecondition with a description of the first
/// violation.
Status VerifyJoinResult(const Query& query,
                        const std::vector<std::vector<Rect>>& relations,
                        const TupleBlock& tuples);

}  // namespace mwsj

#endif  // MWSJ_CORE_VERIFICATION_H_
