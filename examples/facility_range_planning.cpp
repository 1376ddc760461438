// Facility planning with a star-shaped hybrid query: find (site, highway,
// supplier, substation) combinations where a candidate site overlaps a
// highway corridor, lies within 150 units of a supplier, and within 300
// units of a power substation. Demonstrates general join graphs (a star,
// not a chain), per-edge distances, and the C-Rep-L replication bounds
// derived from the join graph.
//
//   $ ./examples/facility_range_planning

#include <cstdio>

#include "core/runner.h"
#include "datagen/synthetic.h"
#include "query/bounds.h"

namespace {

std::vector<mwsj::Rect> Dataset(int64_t n, double lmax, double bmax,
                                uint64_t seed) {
  mwsj::SyntheticParams params;
  params.num_rectangles = n;
  params.x_max = params.y_max = 20'000;
  params.l_max = lmax;
  params.b_max = bmax;
  params.seed = seed;
  return mwsj::GenerateSynthetic(params).value();
}

}  // namespace

int main() {
  // Sites are small parcels; highways are long and thin; suppliers and
  // substations are mid-sized footprints.
  const std::vector<std::vector<mwsj::Rect>> relations = {
      Dataset(5000, 40, 40, 11),    // site
      Dataset(400, 2500, 25, 22),   // highway
      Dataset(800, 120, 120, 33),   // supplier
      Dataset(300, 80, 80, 44),     // substation
  };

  mwsj::QueryBuilder qb;
  const int site = qb.AddRelation("site");
  const int highway = qb.AddRelation("highway");
  const int supplier = qb.AddRelation("supplier");
  const int substation = qb.AddRelation("substation");
  qb.AddOverlap(site, highway)
      .AddRange(site, supplier, 150)
      .AddRange(site, substation, 300);
  const mwsj::Query query = qb.Build().value();
  std::printf("query: %s\n", query.ToString().c_str());

  // The per-relation replication bounds C-Rep-L derives from the join
  // graph and the datasets' diagonal upper bounds (§7.9/§8, generalized).
  std::vector<double> diagonals;
  for (const auto& relation : relations) {
    diagonals.push_back(mwsj::MaxDiagonal(relation));
  }
  const std::vector<double> bounds =
      mwsj::ComputeReplicationBounds(query, diagonals);
  for (int r = 0; r < query.num_relations(); ++r) {
    std::printf("  %-11s d_max %7.1f -> replication bound %7.1f\n",
                query.relation_names()[static_cast<size_t>(r)].c_str(),
                diagonals[static_cast<size_t>(r)],
                bounds[static_cast<size_t>(r)]);
  }

  mwsj::RunnerOptions options;
  options.algorithm = mwsj::Algorithm::kControlledReplicateInLimit;
  options.grid_rows = 8;
  options.grid_cols = 8;
  const auto result = mwsj::RunSpatialJoin(query, relations, options);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("feasible combinations: %lld\n",
              static_cast<long long>(result.value().num_tuples));
  for (size_t i = 0; i < result.value().tuples.size() && i < 5; ++i) {
    const mwsj::IdTuple t = result.value().tuples[i];
    std::printf("  site %lld on highway %lld, supplier %lld, substation %lld\n",
                static_cast<long long>(t[0]), static_cast<long long>(t[1]),
                static_cast<long long>(t[2]), static_cast<long long>(t[3]));
  }
  std::printf(
      "replication: %lld rectangles marked, %lld copies shipped\n",
      static_cast<long long>(result.value().stats.UserCounter(
          mwsj::kCounterRectanglesReplicated)),
      static_cast<long long>(result.value().stats.UserCounter(
          mwsj::kCounterReplicationCopies)));
  return 0;
}
