#include "testing/world.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "grid/grid_partition.h"
#include "queries/knn.h"

namespace mwsj::testing {

namespace {

Predicate EdgePredicate(const WorldConfig& config, int edge_index) {
  switch (config.mix) {
    case PredicateMix::kOverlapOnly:
      return Predicate::Overlap();
    case PredicateMix::kRangeOnly:
      return Predicate::Range(config.range_d);
    case PredicateMix::kHybrid:
      return (edge_index % 2 == 0) ? Predicate::Overlap()
                                   : Predicate::Range(config.range_d);
  }
  return Predicate::Overlap();
}

}  // namespace

Query MakeWorldQuery(const WorldConfig& config) {
  QueryBuilder b;
  int n = 0;
  std::vector<std::pair<int, int>> edges;
  switch (config.shape) {
    case QueryShape::kChain2:
      n = 2;
      edges = {{0, 1}};
      break;
    case QueryShape::kChain3:
      n = 3;
      edges = {{0, 1}, {1, 2}};
      break;
    case QueryShape::kChain4:
      n = 4;
      edges = {{0, 1}, {1, 2}, {2, 3}};
      break;
    case QueryShape::kStar4:
      n = 4;
      edges = {{0, 1}, {0, 2}, {0, 3}};
      break;
    case QueryShape::kCycle3:
      n = 3;
      edges = {{0, 1}, {1, 2}, {2, 0}};
      break;
  }
  for (int i = 0; i < n; ++i) b.AddRelation("R" + std::to_string(i + 1));
  for (size_t e = 0; e < edges.size(); ++e) {
    b.AddCondition(edges[e].first, edges[e].second,
                   EdgePredicate(config, static_cast<int>(e)));
  }
  StatusOr<Query> q = b.Build();
  return q.value();  // Shapes above are always valid.
}

std::vector<std::vector<Rect>> MakeWorldData(const WorldConfig& config,
                                             int num_relations) {
  Rng rng(config.seed);
  std::vector<std::vector<Rect>> out(static_cast<size_t>(num_relations));
  for (auto& relation : out) {
    const int n = static_cast<int>(
        rng.UniformInt(0, config.max_rects_per_relation));
    relation.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      double l = rng.Uniform(0, config.max_dim);
      double b = rng.Uniform(0, config.max_dim);
      double x = rng.Uniform(0, config.space_size - l);
      double y = rng.Uniform(b, config.space_size);
      if (config.integer_coords) {
        l = std::floor(l);
        b = std::floor(b);
        x = std::floor(x);
        y = std::ceil(y);
      }
      relation.push_back(Rect::FromXYLB(x, y, l, b));
    }
  }
  return out;
}

std::vector<std::vector<Rect>> MakeKnnWorldData(const KnnWorldConfig& config) {
  Rng rng(config.seed);
  std::vector<std::vector<Rect>> out(2);
  out[0].reserve(static_cast<size_t>(config.num_points));
  for (int i = 0; i < config.num_points; ++i) {
    out[0].push_back(Rect::FromPoint(Point{
        rng.Uniform(0, config.space_size), rng.Uniform(0, config.space_size)}));
  }
  out[1].reserve(static_cast<size_t>(config.num_rects));
  for (int i = 0; i < config.num_rects; ++i) {
    const double l = rng.Uniform(0, config.max_dim);
    const double b = rng.Uniform(0, config.max_dim);
    out[1].push_back(Rect::FromXYLB(rng.Uniform(0, config.space_size - l),
                                    rng.Uniform(b, config.space_size), l, b));
  }
  if (config.with_duplicates && config.num_points > 0 &&
      config.num_rects > 0) {
    out[0].push_back(out[0].front());
    out[0].push_back(out[0].front());
    out[1].push_back(out[1].front());
  }
  return out;
}

TupleBlock KnnOracleTuples(const std::vector<Rect>& points,
                           const std::vector<Rect>& rects, int k) {
  // Rows are appended in (point, rank) order, which is already sorted.
  TupleBlock out(3);
  std::vector<std::pair<double, int64_t>> all;
  for (size_t p = 0; p < points.size(); ++p) {
    all.clear();
    all.reserve(rects.size());
    for (size_t r = 0; r < rects.size(); ++r) {
      all.emplace_back(MinDistance(rects[r], points[p]),
                       static_cast<int64_t>(r));
    }
    std::sort(all.begin(), all.end());
    const size_t keep = std::min(all.size(), static_cast<size_t>(k));
    for (size_t rank = 0; rank < keep; ++rank) {
      const int64_t row[] = {static_cast<int64_t>(p),
                             static_cast<int64_t>(rank), all[rank].second};
      out.Append(row);
    }
  }
  return out;
}

TupleBlock KnnSingleNodeTuples(const std::vector<Rect>& points,
                               const std::vector<Rect>& rects, int k,
                               const Rect& space, int rows, int cols) {
  std::vector<Point> query_points;
  query_points.reserve(points.size());
  for (const Rect& p : points) query_points.push_back(p.start_point());
  const GridPartition grid = GridPartition::Create(space, rows, cols).value();
  const StatusOr<KnnResult> result = KnnJoin(grid, query_points, rects, k);
  // Rows are appended in (point, rank) order, which is already sorted.
  TupleBlock out(3);
  if (!result.ok()) return out;  // Callers compare against the oracle.
  for (size_t p = 0; p < result.value().neighbors.size(); ++p) {
    const std::vector<KnnNeighbor>& nn = result.value().neighbors[p];
    for (size_t rank = 0; rank < nn.size(); ++rank) {
      const int64_t row[] = {static_cast<int64_t>(p),
                             static_cast<int64_t>(rank), nn[rank].rect_id};
      out.Append(row);
    }
  }
  return out;
}

}  // namespace mwsj::testing
