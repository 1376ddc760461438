#ifndef MWSJ_QUERY_QUERY_H_
#define MWSJ_QUERY_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/predicate.h"

namespace mwsj {

/// One triple (P_i, R_{i,1}, R_{i,2}) of the paper's query model (§1.2),
/// with relations referred to by index into the query's relation list.
struct JoinCondition {
  int left;
  int right;
  Predicate predicate;
};

class QueryBuilder;

/// A multi-way spatial join query: a conjunction of join conditions over a
/// list of named relations (Equation 1 of the paper). Self-joins are
/// expressed by adding the same dataset under several relation names (the
/// paper's Q2s/Q3s/Q4s star queries over California roads do exactly this).
///
/// A valid query has at least two relations, at least one condition, no
/// condition joining a relation with itself, and a *connected* join graph —
/// a disconnected graph would make the multi-way join a Cartesian product
/// of independent joins, which none of the paper's algorithms (nor its
/// duplicate-avoidance proof) support.
class Query {
 public:
  int num_relations() const { return static_cast<int>(relation_names_.size()); }
  const std::vector<std::string>& relation_names() const {
    return relation_names_;
  }
  const std::vector<JoinCondition>& conditions() const { return conditions_; }

  /// Indices into conditions() of the conditions incident to relation `r`.
  const std::vector<int>& ConditionsOf(int r) const {
    return adjacency_[static_cast<size_t>(r)];
  }

  /// True when the join graph is a tree: connected (an invariant) with one
  /// condition fewer than relations, so no cycle and no parallel edge.
  bool IsTree() const {
    return conditions_.size() + 1 == relation_names_.size();
  }
  /// Evaluates every condition against a full assignment of rectangles
  /// (one per relation). Used by the reference algorithms and tests.
  bool Matches(const std::vector<Rect>& assignment) const;

  std::string ToString() const;

  /// Order-normalized rendering of the query, identical for every spelling
  /// of the same query: relations are relabeled in sorted-name order (ties
  /// between duplicate names — self-joins — broken by each relation's
  /// sorted incident-edge signature), condition endpoints are put in
  /// (lo, hi) index order (both predicates are symmetric), and the
  /// condition list is sorted. Relation names are length-prefixed so no
  /// name content can forge a separator, and range distances print with
  /// full precision (%.17g) so distinct distances never alias. Distinct
  /// queries always render distinct forms; symmetric self-join spellings
  /// that the name+signature relabeling cannot distinguish may render
  /// different forms (a safe cache miss, never a false hit).
  std::string CanonicalForm() const;

  /// The canonical rank CanonicalForm() assigns to each relation position:
  /// CanonicalRanks()[p] is the index relation `p` is relabeled to. The
  /// form itself deliberately forgets which position each rank came from,
  /// so a consumer that binds *positional* data to the form (the
  /// scheduler's artifact keys bind catalog datasets by position) must
  /// record this permutation alongside it: two structurally different
  /// submissions can share a canonical form and a positional dataset list
  /// yet bind the data to different roles. Equal (form, permutation)
  /// pairs imply positionally identical queries.
  std::vector<int> CanonicalRanks() const;

  /// FNV-1a 64-bit hash of CanonicalForm(); stable across runs, builds,
  /// and processes (no std::hash involved).
  uint64_t CanonicalHash() const;

  /// The cache key the DatasetCatalog (and a future result cache) indexes
  /// on: the collision-free CanonicalForm prefixed with its hash for cheap
  /// bucketing and log readability.
  std::string CanonicalKey() const;

 private:
  friend class QueryBuilder;
  Query() = default;

  /// The relabeling permutation shared by CanonicalForm() and
  /// CanonicalRanks(): element `rank` is the original relation position
  /// assigned that canonical rank.
  std::vector<int> CanonicalOrderIndices() const;

  std::vector<std::string> relation_names_;
  std::vector<JoinCondition> conditions_;
  std::vector<std::vector<int>> adjacency_;
};

/// Fluent builder for Query. Example (the paper's Q4):
///
///   QueryBuilder b;
///   int r1 = b.AddRelation("R1");
///   int r2 = b.AddRelation("R2");
///   int r3 = b.AddRelation("R3");
///   b.AddOverlap(r1, r2).AddRange(r2, r3, 200.0);
///   StatusOr<Query> q = b.Build();
class QueryBuilder {
 public:
  /// Registers a relation and returns its index.
  int AddRelation(std::string name);

  QueryBuilder& AddOverlap(int left, int right);
  QueryBuilder& AddRange(int left, int right, double distance);
  QueryBuilder& AddCondition(int left, int right, Predicate predicate);

  /// Validates and assembles the query. Returns InvalidArgument on bad
  /// indices, self-edges, negative range distances, empty condition lists,
  /// or a disconnected join graph.
  StatusOr<Query> Build() const;

 private:
  std::vector<std::string> relation_names_;
  std::vector<JoinCondition> conditions_;
};

/// Convenience constructor for the paper's benchmark queries, all of which
/// are chains: R1 P R2 ∧ R2 P R3 ∧ ... (Q1, Q2, Q3, and the self-join
/// variants Q2s/Q3s, which are the same shape over one dataset).
StatusOr<Query> MakeChainQuery(int num_relations, Predicate predicate);

}  // namespace mwsj

#endif  // MWSJ_QUERY_QUERY_H_
