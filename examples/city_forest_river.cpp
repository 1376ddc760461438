// The paper's §1 motivating query — "find all cities adjacent to a forest
// and overlapping with a river" — run as a full filter-and-refine pipeline
// over true polygon geometries (§1.1): the distributed join evaluates the
// MBR filter step with Controlled-Replicate, and the refinement step
// re-checks candidates against the exact polygon predicates.
//
//   $ ./examples/city_forest_river

#include <cstdio>

#include "core/refinement.h"
#include "datagen/polygons.h"

int main() {
  constexpr double kSpace = 4000;

  // Cities: compact convex footprints. Forests: concave blobs. Rivers:
  // long thin corridors. All from the polygon dataset generators.
  mwsj::PolygonDatasetParams params;
  params.space = mwsj::Rect(60, 60, kSpace - 60, kSpace - 60);
  params.min_radius = 12;
  params.max_radius = 45;

  params.count = 600;
  params.seed = 1;
  const std::vector<mwsj::Polygon> cities =
      mwsj::GenerateConvexFootprints(params);
  params.count = 250;
  params.seed = 2;
  params.max_radius = 75;
  const std::vector<mwsj::Polygon> forests =
      mwsj::GenerateConcaveBlobs(params);
  params.count = 120;
  params.seed = 3;
  const std::vector<mwsj::Polygon> rivers = mwsj::GenerateCorridors(params);

  const std::vector<std::vector<mwsj::Polygon>> relations = {cities, forests,
                                                             rivers};

  // "adjacent to a forest" = within 25 units; "overlap with a river" = Ov.
  mwsj::QueryBuilder qb;
  const int city = qb.AddRelation("city");
  const int forest = qb.AddRelation("forest");
  const int river = qb.AddRelation("river");
  qb.AddRange(city, forest, 25.0).AddOverlap(city, river);
  const mwsj::Query query = qb.Build().value();
  std::printf("query: %s\n", query.ToString().c_str());

  mwsj::RunnerOptions options;
  options.algorithm = mwsj::Algorithm::kControlledReplicateInLimit;
  options.grid_rows = 8;
  options.grid_cols = 8;
  const auto result = mwsj::RunFilterRefineJoin(query, relations, options);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("filter step (MBRs):   %lld candidate tuples\n",
              static_cast<long long>(result.value().candidate_tuples));
  std::printf("refine step (exact):  %zu true matches\n",
              result.value().tuples.size());
  if (result.value().candidate_tuples > 0) {
    std::printf("filter precision:     %.1f%%\n",
                100.0 * static_cast<double>(result.value().tuples.size()) /
                    static_cast<double>(result.value().candidate_tuples));
  }
  for (size_t i = 0; i < result.value().tuples.size() && i < 5; ++i) {
    const mwsj::IdTuple t = result.value().tuples[i];
    std::printf("  city %lld near forest %lld, crossing river %lld\n",
                static_cast<long long>(t[0]), static_cast<long long>(t[1]),
                static_cast<long long>(t[2]));
  }
  return 0;
}
