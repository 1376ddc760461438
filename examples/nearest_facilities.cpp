// Beyond joins: the paper's §10 future-work queries on the same substrate.
// Given a city's incident locations (points) and facility footprints
// (rectangles), find for each incident (a) the 3 nearest fire stations
// (kNN query) and (b) the district polygon-MBB containing it (containment
// query). Containment is the overlap join `P OV R` with each point as a
// degenerate rectangle: a point lies in a closed rectangle exactly when
// the two overlap.
//
//   $ ./examples/nearest_facilities

#include <cstdio>

#include "common/random.h"
#include "core/runner.h"
#include "queries/knn_mr.h"
#include "query/parser.h"

int main() {
  constexpr double kCity = 10'000;
  mwsj::Rng rng(99);

  // 25 fire stations scattered across the city.
  std::vector<mwsj::Rect> stations;
  for (int i = 0; i < 25; ++i) {
    stations.push_back(mwsj::Rect::FromXYLB(rng.Uniform(0, kCity - 80),
                                            rng.Uniform(80, kCity), 80, 80));
  }
  // A 10x10 block of district footprints tiling the city.
  std::vector<mwsj::Rect> districts;
  for (int row = 0; row < 10; ++row) {
    for (int col = 0; col < 10; ++col) {
      districts.push_back(mwsj::Rect::FromXYLB(col * 1000.0,
                                               (row + 1) * 1000.0, 1000, 1000));
    }
  }
  // 5000 incident locations.
  std::vector<mwsj::Point> incidents;
  for (int i = 0; i < 5000; ++i) {
    incidents.push_back(
        mwsj::Point{rng.Uniform(0, kCity), rng.Uniform(0, kCity)});
  }

  std::vector<mwsj::Rect> incident_points;
  for (const mwsj::Point& p : incidents) {
    incident_points.push_back(mwsj::Rect::FromPoint(p));
  }
  mwsj::RunnerOptions options;
  options.space = mwsj::Rect(0, 0, kCity, kCity);
  // Distributed kNN (knn-mr): output rows are {incident, rank, station},
  // sorted by incident then rank.
  const auto knn = mwsj::RunKnnJoinMr(
      mwsj::MakeChainQuery(2, mwsj::Predicate::Overlap()).value(),
      {incident_points, stations}, 3, options);
  if (!knn.ok()) {
    std::fprintf(stderr, "knn error: %s\n", knn.status().ToString().c_str());
    return 1;
  }
  const auto containment =
      mwsj::RunSpatialJoin(mwsj::ParseQuery("P OV R").value(),
                           {incident_points, districts}, options);
  if (!containment.ok()) {
    std::fprintf(stderr, "containment error: %s\n",
                 containment.status().ToString().c_str());
    return 1;
  }

  // knn-mr reports ranks, not distances; MinDistance recomputes them with
  // the same bits the join ranked by.
  const auto distance = [&](mwsj::IdTuple row) {
    return mwsj::MinDistance(stations[static_cast<size_t>(row[2])],
                             incidents[static_cast<size_t>(row[0])]);
  };
  double avg_first = 0;
  for (const mwsj::IdTuple row : knn.value().tuples) {
    if (row[1] == 0) avg_first += distance(row);
  }
  std::printf("incidents: %zu, stations: %zu, districts: %zu\n",
              incidents.size(), stations.size(), districts.size());
  std::printf("average distance to the nearest station: %.0f\n",
              avg_first / static_cast<double>(incidents.size()));
  std::printf("district assignments found: %lld\n",
              static_cast<long long>(containment.value().num_tuples));

  std::printf("incident 0 at (%.0f, %.0f):\n", incidents[0].x, incidents[0].y);
  for (const mwsj::IdTuple row : knn.value().tuples) {
    if (row[0] != 0) break;
    std::printf("  station %lld at distance %.0f\n",
                static_cast<long long>(row[2]), distance(row));
  }
  int64_t knn_shuffle = 0;
  for (const mwsj::JobStats& job : knn.value().stats.jobs) {
    knn_shuffle += job.intermediate_records;
  }
  std::printf(
      "kNN (knn-mr) ran %zu map-reduce rounds, %lld records shuffled\n",
      knn.value().stats.jobs.size(),
      static_cast<long long>(knn_shuffle));
  return 0;
}
