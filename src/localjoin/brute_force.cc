#include "localjoin/brute_force.h"

#include <cmath>

#include "simd/simd.h"

namespace mwsj {

namespace {

// True when the condition can be evaluated by a batch kernel: overlap
// always, range only while d·d is a normal double (the kernels compare
// squared distances; Predicate::Evaluate handles negative, huge and tiny d
// itself).
bool Batchable(const JoinCondition& c) {
  if (c.predicate.is_overlap()) return true;
  const double d = c.predicate.distance();
  return d >= 0 && std::isnormal(d * d);
}

void Recurse(const Query& query,
             const std::vector<std::vector<Rect>>& relations,
             const std::vector<simd::SoaRects>& soas, size_t depth,
             std::vector<int64_t>& ids, std::vector<const Rect*>& chosen,
             std::vector<std::vector<uint32_t>>& match_scratch,
             TupleBlock* out) {
  const size_t m = static_cast<size_t>(query.num_relations());
  if (depth == m) {
    out->Append(ids);
    return;
  }
  const auto& relation = relations[depth];

  // Prefilter: the first condition joining `depth` to an already-chosen
  // relation runs as one batch-kernel call over the relation's SoA mirror,
  // shrinking the candidate loop; the remaining conditions stay scalar.
  int batched_ci = -1;
  for (size_t ci = 0; ci < query.conditions().size(); ++ci) {
    const JoinCondition& c = query.conditions()[ci];
    const size_t l = static_cast<size_t>(c.left);
    const size_t r = static_cast<size_t>(c.right);
    const bool connects =
        (l == depth && r < depth) || (r == depth && l < depth);
    if (connects && Batchable(c)) {
      batched_ci = static_cast<int>(ci);
      break;
    }
  }

  const uint32_t* candidates = nullptr;
  size_t num_candidates = relation.size();
  if (batched_ci >= 0) {
    const JoinCondition& c =
        query.conditions()[static_cast<size_t>(batched_ci)];
    const size_t other = static_cast<size_t>(c.left) == depth
                             ? static_cast<size_t>(c.right)
                             : static_cast<size_t>(c.left);
    const Rect& q = *chosen[other];
    const simd::SoaRects& soa = soas[depth];
    std::vector<uint32_t>& matches = match_scratch[depth];
    if (matches.size() < soa.size()) matches.resize(soa.size());
    const simd::KernelTable& kernels = simd::ActiveKernels();
    const double d = c.predicate.distance();
    num_candidates =
        c.predicate.is_overlap()
            ? kernels.overlap_filter(soa.min_x.data(), soa.min_y.data(),
                                     soa.max_x.data(), soa.max_y.data(),
                                     soa.size(), q.min_x(), q.min_y(),
                                     q.max_x(), q.max_y(), matches.data())
            : kernels.within_filter(soa.min_x.data(), soa.min_y.data(),
                                    soa.max_x.data(), soa.max_y.data(),
                                    soa.size(), q.min_x(), q.min_y(),
                                    q.max_x(), q.max_y(), d * d,
                                    matches.data());
    candidates = matches.data();
  }

  for (size_t t = 0; t < num_candidates; ++t) {
    const size_t i = candidates != nullptr ? candidates[t] : t;
    const Rect& candidate = relation[i];
    bool ok = true;
    for (size_t ci = 0; ci < query.conditions().size(); ++ci) {
      if (static_cast<int>(ci) == batched_ci) continue;  // Already passed.
      const JoinCondition& c = query.conditions()[ci];
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
    Recurse(query, relations, soas, depth + 1, ids, chosen, match_scratch,
            out);
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
  std::vector<simd::SoaRects> soas(m);
  for (size_t d = 0; d < m; ++d) {
    soas[d].Reserve(relations[d].size());
    for (const Rect& r : relations[d]) {
      soas[d].PushBack(r.min_x(), r.min_y(), r.max_x(), r.max_y());
    }
  }
  std::vector<int64_t> ids(m, -1);
  std::vector<const Rect*> chosen(m, nullptr);
  std::vector<std::vector<uint32_t>> match_scratch(m);
  Recurse(query, relations, soas, 0, ids, chosen, match_scratch, &out);
  SortTuples(&out);
  return out;
}

}  // namespace mwsj
