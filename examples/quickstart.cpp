// Quickstart: the smallest end-to-end use of the library.
//
// Builds a three-way overlap query from its textual form, generates two
// small synthetic datasets plus one shared one, runs Controlled-Replicate
// on a 4x4 reducer grid, and prints the output tuples and the run's
// map-reduce statistics.
//
//   $ ./examples/quickstart

#include <cstdio>

#include "core/runner.h"
#include "datagen/synthetic.h"
#include "query/parser.h"

int main() {
  // 1. The query: A overlaps B, and B is within distance 40 of C.
  const mwsj::StatusOr<mwsj::Query> query =
      mwsj::ParseQuery("A OV B AND B RA(40) C");
  if (!query.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  std::printf("query: %s\n", query.value().ToString().c_str());

  // 2. Three rectangle datasets in a 1000 x 1000 space.
  mwsj::SyntheticParams params;
  params.num_rectangles = 400;
  params.x_max = params.y_max = 1000;
  params.l_max = params.b_max = 30;
  std::vector<std::vector<mwsj::Rect>> relations;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    params.seed = seed;
    relations.push_back(mwsj::GenerateSynthetic(params).value());
  }

  // 3. Run the join with the paper's Controlled-Replicate algorithm.
  mwsj::RunnerOptions options;
  options.algorithm = mwsj::Algorithm::kControlledReplicate;
  options.grid_rows = 4;
  options.grid_cols = 4;
  const mwsj::StatusOr<mwsj::JoinRunResult> result =
      mwsj::RunSpatialJoin(query.value(), relations, options);
  if (!result.ok()) {
    std::fprintf(stderr, "join error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  // 4. Inspect the output and the cost profile.
  std::printf("output tuples: %lld\n",
              static_cast<long long>(result.value().num_tuples));
  for (size_t i = 0; i < result.value().tuples.size() && i < 5; ++i) {
    const mwsj::IdTuple t = result.value().tuples[i];
    std::printf("  (A=%lld, B=%lld, C=%lld)\n", static_cast<long long>(t[0]),
                static_cast<long long>(t[1]), static_cast<long long>(t[2]));
  }
  for (const mwsj::JobStats& job : result.value().stats.jobs) {
    std::printf(
        "job %-18s shuffled %lld records (%lld bytes), max reducer load "
        "%lld\n",
        job.job_name.c_str(),
        static_cast<long long>(job.intermediate_records),
        static_cast<long long>(job.intermediate_bytes),
        static_cast<long long>(job.MaxReducerRecords()));
  }
  std::printf(
      "rectangles marked for replication: %lld\n",
      static_cast<long long>(result.value().stats.UserCounter(
          mwsj::kCounterRectanglesReplicated)));
  return 0;
}
