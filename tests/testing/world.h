#ifndef MWSJ_TESTS_TESTING_WORLD_H_
#define MWSJ_TESTS_TESTING_WORLD_H_

#include <vector>

#include "common/random.h"
#include "geometry/rect.h"
#include "localjoin/brute_force.h"
#include "query/query.h"

namespace mwsj::testing {

/// Shape of the join graph used by randomized equivalence tests.
enum class QueryShape {
  kChain3,  // R1 - R2 - R3
  kChain4,  // R1 - R2 - R3 - R4
  kStar4,   // R1 at the center of R2, R3, R4
  kCycle3,  // triangle R1 - R2 - R3 - R1
  kChain2,  // R1 - R2: the 2-way join of §5
};

/// Kind of predicates on the edges.
enum class PredicateMix {
  kOverlapOnly,
  kRangeOnly,   // all edges Ra(d)
  kHybrid,      // alternating Ov / Ra(d)
};

struct WorldConfig {
  QueryShape shape = QueryShape::kChain3;
  PredicateMix mix = PredicateMix::kOverlapOnly;
  double range_d = 8.0;
  int max_rects_per_relation = 30;
  double space_size = 100.0;
  double max_dim = 35.0;      // Rectangles up to this size (big vs. cells).
  bool integer_coords = false;  // Integer coordinates: boundary-tie stress.
  /// Long rectangles: each is a strip whose long side is up to 80% of the
  /// space (crossing most of the grid) and whose short side is up to 2.
  bool long_rects = false;
  /// With long_rects, only relation 0 is long; the others keep max_dim.
  bool long_rects_first_only = false;
  uint64_t seed = 1;
};

/// Builds the query for a config (always valid).
Query MakeWorldQuery(const WorldConfig& config);

/// Generates one dataset per query relation.
std::vector<std::vector<Rect>> MakeWorldData(const WorldConfig& config,
                                             int num_relations);

/// World generator for the distributed-kNN differential suite: relation 0
/// holds degenerate query points, relation 1 data rectangles.
struct KnnWorldConfig {
  int num_points = 120;
  int num_rects = 250;
  double space_size = 100.0;
  double max_dim = 8.0;   // Rectangle edge lengths up to this size.
  /// Appends copies of the first point and the first rectangle, forcing
  /// exact distance ties through the (distance, rect id) tie-break.
  bool with_duplicates = false;
  uint64_t seed = 1;
};

/// {points, rects} datasets for a config.
std::vector<std::vector<Rect>> MakeKnnWorldData(const KnnWorldConfig& config);

/// Scalar brute-force kNN oracle in knn-mr's output encoding:
/// {point_id, rank, rect_id} with ranks assigned by (distance, rect id),
/// sorted by (point, rank). See queries/knn_mr.h.
TupleBlock KnnOracleTuples(const std::vector<Rect>& points,
                           const std::vector<Rect>& rects, int k);

/// The single-node R-tree KnnJoin (queries/knn.h), re-encoded the same
/// way — the second pin of the differential suite. Only the grid's space
/// reaches KnnJoin, where it seeds the first probe radius.
TupleBlock KnnSingleNodeTuples(const std::vector<Rect>& points,
                               const std::vector<Rect>& rects, int k,
                               const Rect& space, int rows, int cols);

}  // namespace mwsj::testing

#endif  // MWSJ_TESTS_TESTING_WORLD_H_
