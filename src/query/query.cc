#include "query/query.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <tuple>

#include "common/str_format.h"

namespace mwsj {

namespace {

/// Full-precision predicate rendering for canonicalization. ToString()'s
/// %g is for humans and would alias distances that differ below six
/// significant digits; %.17g round-trips every double.
std::string CanonicalPredicate(const Predicate& p) {
  if (p.is_overlap()) return "Ov";
  return StrFormat("Ra(%.17g)", p.distance());
}

}  // namespace

std::string Predicate::ToString() const {
  if (is_overlap()) return "Ov";
  return StrFormat("Ra(%g)", distance_);
}

bool Query::Matches(const std::vector<Rect>& assignment) const {
  for (const JoinCondition& c : conditions_) {
    if (!c.predicate.Evaluate(assignment[static_cast<size_t>(c.left)],
                              assignment[static_cast<size_t>(c.right)])) {
      return false;
    }
  }
  return true;
}

std::string Query::ToString() const {
  std::string out;
  for (size_t i = 0; i < conditions_.size(); ++i) {
    const JoinCondition& c = conditions_[i];
    if (i > 0) out += " AND ";
    out += relation_names_[static_cast<size_t>(c.left)];
    out += " ";
    out += c.predicate.ToString();
    out += " ";
    out += relation_names_[static_cast<size_t>(c.right)];
  }
  return out;
}

std::vector<int> Query::CanonicalOrderIndices() const {
  const size_t n = relation_names_.size();
  // Local structure signature per relation: the sorted multiset of
  // (predicate, neighbor name) over its incident conditions. It orders
  // duplicate-named relations (self-join spellings) that plain name
  // sorting cannot, so registration order stops leaking into the form.
  std::vector<std::string> signature(n);
  for (size_t r = 0; r < n; ++r) {
    std::vector<std::string> incident;
    incident.reserve(adjacency_[r].size());
    for (const int ci : adjacency_[r]) {
      const JoinCondition& c = conditions_[static_cast<size_t>(ci)];
      const int other = (c.left == static_cast<int>(r)) ? c.right : c.left;
      incident.push_back(CanonicalPredicate(c.predicate) + "~" +
                         relation_names_[static_cast<size_t>(other)]);
    }
    std::sort(incident.begin(), incident.end());
    for (const std::string& s : incident) {
      signature[r] += s;
      signature[r] += ';';
    }
  }
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const auto& na = relation_names_[static_cast<size_t>(a)];
    const auto& nb = relation_names_[static_cast<size_t>(b)];
    if (na != nb) return na < nb;
    return signature[static_cast<size_t>(a)] <
           signature[static_cast<size_t>(b)];
  });
  return order;
}

std::vector<int> Query::CanonicalRanks() const {
  const std::vector<int> order = CanonicalOrderIndices();
  std::vector<int> rank(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    rank[static_cast<size_t>(order[i])] = static_cast<int>(i);
  }
  return rank;
}

std::string Query::CanonicalForm() const {
  const size_t n = relation_names_.size();
  const std::vector<int> order = CanonicalOrderIndices();
  std::vector<int> rank(n);
  for (size_t i = 0; i < n; ++i) {
    rank[static_cast<size_t>(order[i])] = static_cast<int>(i);
  }

  // Conditions under the new labels, endpoints in (lo, hi) order — both
  // predicate kinds are symmetric — and the list itself sorted.
  std::vector<std::tuple<int, int, std::string>> canon;
  canon.reserve(conditions_.size());
  for (const JoinCondition& c : conditions_) {
    const int a = rank[static_cast<size_t>(c.left)];
    const int b = rank[static_cast<size_t>(c.right)];
    canon.emplace_back(std::min(a, b), std::max(a, b),
                       CanonicalPredicate(c.predicate));
  }
  std::sort(canon.begin(), canon.end());

  // Length-prefixed names make the rendering injective even for names
  // containing the separators.
  std::string out = "rels[";
  for (size_t i = 0; i < n; ++i) {
    const std::string& name = relation_names_[static_cast<size_t>(order[i])];
    if (i > 0) out += ',';
    out += StrFormat("%zu:", name.size());
    out += name;
  }
  out += "] conds[";
  for (size_t i = 0; i < canon.size(); ++i) {
    if (i > 0) out += ',';
    out += StrFormat("%d %s %d", std::get<0>(canon[i]),
                     std::get<2>(canon[i]).c_str(), std::get<1>(canon[i]));
  }
  out += ']';
  return out;
}

uint64_t Query::CanonicalHash() const {
  // FNV-1a, 64-bit: stable across processes and standard libraries,
  // unlike std::hash.
  const std::string form = CanonicalForm();
  uint64_t h = 14695981039346656037ULL;
  for (const char c : form) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Query::CanonicalKey() const {
  return StrFormat("q%016llx|", static_cast<unsigned long long>(
                                    CanonicalHash())) +
         CanonicalForm();
}

int QueryBuilder::AddRelation(std::string name) {
  relation_names_.push_back(std::move(name));
  return static_cast<int>(relation_names_.size()) - 1;
}

QueryBuilder& QueryBuilder::AddOverlap(int left, int right) {
  return AddCondition(left, right, Predicate::Overlap());
}

QueryBuilder& QueryBuilder::AddRange(int left, int right, double distance) {
  return AddCondition(left, right, Predicate::Range(distance));
}

QueryBuilder& QueryBuilder::AddCondition(int left, int right,
                                         Predicate predicate) {
  conditions_.push_back(JoinCondition{left, right, predicate});
  return *this;
}

StatusOr<Query> QueryBuilder::Build() const {
  const int n = static_cast<int>(relation_names_.size());
  if (n < 2) {
    return Status::InvalidArgument("a join query needs at least 2 relations");
  }
  if (conditions_.empty()) {
    return Status::InvalidArgument("a join query needs at least 1 condition");
  }
  for (const JoinCondition& c : conditions_) {
    if (c.left < 0 || c.left >= n || c.right < 0 || c.right >= n) {
      return Status::InvalidArgument(
          StrFormat("condition references relation index out of range "
                    "[0, %d): (%d, %d)",
                    n, c.left, c.right));
    }
    if (c.left == c.right) {
      return Status::InvalidArgument(
          "a condition cannot join a relation with itself; register the "
          "dataset twice for self-joins");
    }
    if (c.predicate.is_range() && c.predicate.distance() < 0) {
      return Status::InvalidArgument("range distance must be non-negative");
    }
  }

  // Connectivity check (BFS). A disconnected join graph is a cross
  // product of independent joins, which the framework does not support.
  std::vector<std::vector<int>> adjacency(static_cast<size_t>(n));
  for (size_t i = 0; i < conditions_.size(); ++i) {
    adjacency[static_cast<size_t>(conditions_[i].left)].push_back(
        static_cast<int>(i));
    adjacency[static_cast<size_t>(conditions_[i].right)].push_back(
        static_cast<int>(i));
  }
  std::vector<bool> seen(static_cast<size_t>(n), false);
  std::deque<int> frontier = {0};
  seen[0] = true;
  int visited = 0;
  while (!frontier.empty()) {
    const int r = frontier.front();
    frontier.pop_front();
    ++visited;
    for (int ci : adjacency[static_cast<size_t>(r)]) {
      const JoinCondition& c = conditions_[static_cast<size_t>(ci)];
      const int other = (c.left == r) ? c.right : c.left;
      if (!seen[static_cast<size_t>(other)]) {
        seen[static_cast<size_t>(other)] = true;
        frontier.push_back(other);
      }
    }
  }
  if (visited != n) {
    return Status::InvalidArgument(
        "the join graph must be connected; split disconnected queries into "
        "independent joins");
  }

  Query q;
  q.relation_names_ = relation_names_;
  q.conditions_ = conditions_;
  q.adjacency_ = std::move(adjacency);
  return q;
}

StatusOr<Query> MakeChainQuery(int num_relations, Predicate predicate) {
  QueryBuilder b;
  for (int i = 0; i < num_relations; ++i) {
    b.AddRelation(StrFormat("R%d", i + 1));
  }
  for (int i = 0; i + 1 < num_relations; ++i) {
    b.AddCondition(i, i + 1, predicate);
  }
  return b.Build();
}

}  // namespace mwsj
