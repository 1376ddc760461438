#include "core/verification.h"

#include <algorithm>

#include "common/str_format.h"

namespace mwsj {

Status VerifyJoinResult(const Query& query,
                        const std::vector<std::vector<Rect>>& relations,
                        const TupleBlock& tuples) {
  const size_t m = static_cast<size_t>(query.num_relations());
  if (relations.size() != m) {
    return Status::InvalidArgument("relation count does not match the query");
  }

  if (!tuples.empty() && tuples.arity() != m) {
    return Status::FailedPrecondition(
        StrFormat("tuples have %zu components, query has %zu relations",
                  tuples.arity(), m));
  }
  for (size_t t = 0; t < tuples.size(); ++t) {
    const IdTuple tuple = tuples[t];
    for (size_t r = 0; r < m; ++r) {
      if (tuple[r] < 0 ||
          tuple[r] >= static_cast<int64_t>(relations[r].size())) {
        return Status::FailedPrecondition(
            StrFormat("tuple %zu references id %lld outside relation %zu "
                      "(size %zu)",
                      t, static_cast<long long>(tuple[r]), r,
                      relations[r].size()));
      }
    }
    for (const JoinCondition& c : query.conditions()) {
      const Rect& left =
          relations[static_cast<size_t>(c.left)]
                   [static_cast<size_t>(tuple[static_cast<size_t>(c.left)])];
      const Rect& right =
          relations[static_cast<size_t>(c.right)]
                   [static_cast<size_t>(tuple[static_cast<size_t>(c.right)])];
      if (!c.predicate.Evaluate(left, right)) {
        return Status::FailedPrecondition(StrFormat(
            "tuple %zu violates condition %s between relations %d and %d", t,
            c.predicate.ToString().c_str(), c.left, c.right));
      }
    }
  }

  // Duplicate-freedom: equal rows are adjacent once sorted.
  TupleBlock sorted = tuples;
  SortTuples(&sorted);
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (std::ranges::equal(sorted[i], sorted[i - 1])) {
      return Status::FailedPrecondition(
          "result contains a duplicate tuple (duplicate-avoidance failed)");
    }
  }
  return Status::OK();
}

}  // namespace mwsj
