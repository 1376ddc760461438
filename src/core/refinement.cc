#include "core/refinement.h"

namespace mwsj {

namespace {

bool TupleMatches(const Query& query,
                  const std::vector<std::vector<Polygon>>& relations,
                  IdTuple tuple) {
  for (const JoinCondition& c : query.conditions()) {
    const Polygon& a =
        relations[static_cast<size_t>(c.left)]
                 [static_cast<size_t>(tuple[static_cast<size_t>(c.left)])];
    const Polygon& b =
        relations[static_cast<size_t>(c.right)]
                 [static_cast<size_t>(tuple[static_cast<size_t>(c.right)])];
    if (c.predicate.is_overlap()) {
      if (!a.Intersects(b)) return false;
    } else {
      if (a.MinDistanceTo(b) > c.predicate.distance()) return false;
    }
  }
  return true;
}

}  // namespace

TupleBlock RefineTuples(const Query& query,
                        const std::vector<std::vector<Polygon>>& relations,
                        const TupleBlock& candidates) {
  TupleBlock out(candidates.arity());
  for (const IdTuple tuple : candidates) {
    if (TupleMatches(query, relations, tuple)) out.Append(tuple);
  }
  return out;
}

StatusOr<FilterRefineResult> RunFilterRefineJoin(
    const Query& query, const std::vector<std::vector<Polygon>>& relations,
    const RunnerOptions& options) {
  std::vector<std::vector<Rect>> mbrs(relations.size());
  for (size_t r = 0; r < relations.size(); ++r) {
    mbrs[r].reserve(relations[r].size());
    for (const Polygon& p : relations[r]) mbrs[r].push_back(p.Mbr());
  }
  StatusOr<JoinRunResult> filtered = RunSpatialJoin(query, mbrs, options);
  if (!filtered.ok()) return filtered.status();

  FilterRefineResult result;
  result.candidate_tuples =
      static_cast<int64_t>(filtered.value().tuples.size());
  result.stats = std::move(filtered.value().stats);
  result.tuples = RefineTuples(query, relations, filtered.value().tuples);
  return result;
}

}  // namespace mwsj
