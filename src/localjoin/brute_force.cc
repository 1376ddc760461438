#include "localjoin/brute_force.h"

namespace mwsj {

namespace {

void Recurse(const Query& query,
             const std::vector<std::vector<Rect>>& relations, size_t depth,
             std::vector<int64_t>& ids, std::vector<const Rect*>& chosen,
             TupleBlock* out) {
  const size_t m = static_cast<size_t>(query.num_relations());
  if (depth == m) {
    out->Append(ids);
    return;
  }
  const auto& relation = relations[depth];
  for (size_t i = 0; i < relation.size(); ++i) {
    const Rect& candidate = relation[i];
    bool ok = true;
    for (const JoinCondition& c : query.conditions()) {
      const size_t l = static_cast<size_t>(c.left);
      const size_t r = static_cast<size_t>(c.right);
      // Check conditions whose later endpoint is `depth` (the other one is
      // already chosen).
      const Rect* other = nullptr;
      if (l == depth && r < depth) other = chosen[r];
      if (r == depth && l < depth) other = chosen[l];
      if (other != nullptr && !c.predicate.Evaluate(candidate, *other)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    ids[depth] = static_cast<int64_t>(i);
    chosen[depth] = &candidate;
    Recurse(query, relations, depth + 1, ids, chosen, out);
    chosen[depth] = nullptr;
  }
}

}  // namespace

TupleBlock BruteForceJoin(const Query& query,
                          const std::vector<std::vector<Rect>>& relations) {
  const size_t m = static_cast<size_t>(query.num_relations());
  TupleBlock out(m);
  for (const auto& relation : relations) {
    if (relation.empty()) return out;
  }
  std::vector<int64_t> ids(m, -1);
  std::vector<const Rect*> chosen(m, nullptr);
  Recurse(query, relations, 0, ids, chosen, &out);
  SortTuples(&out);
  return out;
}

}  // namespace mwsj
