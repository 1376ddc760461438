#include "core/optimizer.h"

#include <algorithm>
#include <limits>

#include "common/random.h"
#include "localjoin/rtree.h"

namespace mwsj {

namespace {

std::vector<Rect> SampleRelation(const std::vector<Rect>& relation,
                                 size_t sample_size, Rng& rng) {
  if (relation.size() <= sample_size) return relation;
  std::vector<Rect> sample;
  sample.reserve(sample_size);
  for (size_t i = 0; i < sample_size; ++i) {
    sample.push_back(relation[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(relation.size()) - 1))]);
  }
  return sample;
}

// Estimated cardinality of joining the bound set with `next`, given the
// current cardinality: multiply by |next| and by the selectivity of every
// condition connecting `next` to a bound relation.
double StepCardinality(const Query& query,
                       const std::vector<double>& selectivities,
                       const std::vector<double>& sizes,
                       const std::vector<bool>& bound, int next,
                       double current) {
  double estimate = current * sizes[static_cast<size_t>(next)];
  for (int ci : query.ConditionsOf(next)) {
    const JoinCondition& c = query.conditions()[static_cast<size_t>(ci)];
    const int other = (c.left == next) ? c.right : c.left;
    if (bound[static_cast<size_t>(other)]) {
      estimate *= selectivities[static_cast<size_t>(ci)];
    }
  }
  return estimate;
}

// Exhaustive depth-first search over connectivity-valid orders, minimizing the sum of
// intermediate cardinalities (the final result's size is order-invariant
// but is included uniformly, so it does not affect the argmin).
struct Enumerator {
  const Query& query;
  const std::vector<double>& selectivities;
  const std::vector<double>& sizes;

  std::vector<int> best_order;
  double best_cost = std::numeric_limits<double>::infinity();

  std::vector<int> order;
  std::vector<bool> bound;

  void Search(double cardinality, double cost) {
    const int m = query.num_relations();
    if (static_cast<int>(order.size()) == m) {
      if (cost < best_cost) {
        best_cost = cost;
        best_order = order;
      }
      return;
    }
    if (cost >= best_cost) return;  // Branch and bound.
    for (int r = 0; r < m; ++r) {
      if (bound[static_cast<size_t>(r)]) continue;
      if (!order.empty()) {
        bool connected = false;
        for (int ci : query.ConditionsOf(r)) {
          const JoinCondition& c =
              query.conditions()[static_cast<size_t>(ci)];
          const int other = (c.left == r) ? c.right : c.left;
          if (bound[static_cast<size_t>(other)]) connected = true;
        }
        if (!connected) continue;
      }
      const double next_cardinality =
          order.empty()
              ? sizes[static_cast<size_t>(r)]
              : StepCardinality(query, selectivities, sizes, bound, r,
                                cardinality);
      bound[static_cast<size_t>(r)] = true;
      order.push_back(r);
      // Intermediates are every step's output except the final one.
      const double added =
          static_cast<int>(order.size()) < query.num_relations()
              ? next_cardinality
              : 0;
      Search(next_cardinality, cost + added);
      order.pop_back();
      bound[static_cast<size_t>(r)] = false;
    }
  }
};

}  // namespace

std::vector<double> EstimateSelectivities(
    const Query& query, const std::vector<std::vector<Rect>>& relations,
    const CascadeOrderOptions& options) {
  Rng rng(options.seed);
  std::vector<std::vector<Rect>> samples;
  samples.reserve(relations.size());
  for (const auto& relation : relations) {
    samples.push_back(SampleRelation(relation, options.sample_size, rng));
  }

  std::vector<double> selectivities;
  selectivities.reserve(query.conditions().size());
  for (const JoinCondition& c : query.conditions()) {
    const auto& left = samples[static_cast<size_t>(c.left)];
    const auto& right = samples[static_cast<size_t>(c.right)];
    if (left.empty() || right.empty()) {
      selectivities.push_back(0);
      continue;
    }
    const RTree tree(right);
    RTree::QueryScratch scratch;
    std::vector<int32_t> hits;
    int64_t matches = 0;
    for (const Rect& l : left) {
      hits.clear();
      tree.Collect(c.predicate, l, &scratch, &hits);
      matches += static_cast<int64_t>(hits.size());
    }
    // Laplace-style smoothing keeps estimates positive so the optimizer
    // can still rank orders when a sample sees no matches.
    selectivities.push_back(
        (static_cast<double>(matches) + 0.5) /
        (static_cast<double>(left.size()) * static_cast<double>(right.size())));
  }
  return selectivities;
}

std::vector<int> OptimizeCascadeOrder(
    const Query& query, const std::vector<std::vector<Rect>>& relations,
    const CascadeOrderOptions& options) {
  const int m = query.num_relations();
  const std::vector<double> selectivities =
      EstimateSelectivities(query, relations, options);
  std::vector<double> sizes;
  sizes.reserve(relations.size());
  for (const auto& relation : relations) {
    sizes.push_back(static_cast<double>(relation.size()));
  }

  if (m <= 9) {
    Enumerator e{query, selectivities, sizes, {}, /*best_cost=*/
                 std::numeric_limits<double>::infinity(),
                 {},
                 std::vector<bool>(static_cast<size_t>(m), false)};
    e.Search(0, 0);
    return e.best_order;
  }

  // Greedy fallback for very wide queries: start from the smallest
  // relation and repeatedly add the connected relation with the cheapest
  // step.
  std::vector<bool> bound(static_cast<size_t>(m), false);
  std::vector<int> order;
  int first = 0;
  for (int r = 1; r < m; ++r) {
    if (sizes[static_cast<size_t>(r)] < sizes[static_cast<size_t>(first)]) {
      first = r;
    }
  }
  order.push_back(first);
  bound[static_cast<size_t>(first)] = true;
  double cardinality = sizes[static_cast<size_t>(first)];
  while (static_cast<int>(order.size()) < m) {
    int best = -1;
    double best_estimate = std::numeric_limits<double>::infinity();
    for (int r = 0; r < m; ++r) {
      if (bound[static_cast<size_t>(r)]) continue;
      bool connected = false;
      for (int ci : query.ConditionsOf(r)) {
        const JoinCondition& c = query.conditions()[static_cast<size_t>(ci)];
        const int other = (c.left == r) ? c.right : c.left;
        if (bound[static_cast<size_t>(other)]) connected = true;
      }
      if (!connected) continue;
      const double estimate = StepCardinality(query, selectivities, sizes,
                                              bound, r, cardinality);
      if (estimate < best_estimate) {
        best_estimate = estimate;
        best = r;
      }
    }
    order.push_back(best);
    bound[static_cast<size_t>(best)] = true;
    cardinality = best_estimate;
  }
  return order;
}

}  // namespace mwsj
