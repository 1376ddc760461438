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
#include "queries/knn.h"
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

  const mwsj::GridPartition grid =
      mwsj::GridPartition::Create(mwsj::Rect(0, 0, kCity, kCity), 8, 8)
          .value();

  const auto knn = mwsj::KnnJoin(grid, incidents, stations, 3);
  if (!knn.ok()) {
    std::fprintf(stderr, "knn error: %s\n", knn.status().ToString().c_str());
    return 1;
  }
  std::vector<mwsj::Rect> incident_points;
  for (const mwsj::Point& p : incidents) {
    incident_points.push_back(mwsj::Rect::FromPoint(p));
  }
  mwsj::RunnerOptions options;
  options.space = grid.space();
  const auto containment =
      mwsj::RunSpatialJoin(mwsj::ParseQuery("P OV R").value(),
                           {incident_points, districts}, options);
  if (!containment.ok()) {
    std::fprintf(stderr, "containment error: %s\n",
                 containment.status().ToString().c_str());
    return 1;
  }

  double avg_first = 0;
  for (const auto& nn : knn.value().neighbors) {
    avg_first += nn.empty() ? 0 : nn[0].distance;
  }
  std::printf("incidents: %zu, stations: %zu, districts: %zu\n",
              incidents.size(), stations.size(), districts.size());
  std::printf("average distance to the nearest station: %.0f\n",
              avg_first / static_cast<double>(incidents.size()));
  std::printf("district assignments found: %lld\n",
              static_cast<long long>(containment.value().num_tuples));

  const auto& first = knn.value().neighbors[0];
  std::printf("incident 0 at (%.0f, %.0f):\n", incidents[0].x, incidents[0].y);
  for (const mwsj::KnnNeighbor& n : first) {
    std::printf("  station %lld at distance %.0f\n",
                static_cast<long long>(n.rect_id), n.distance);
  }
  int64_t knn_shuffle = 0;
  for (const mwsj::JobStats& job : knn.value().stats.jobs) {
    knn_shuffle += job.intermediate_records;
  }
  std::printf("kNN ran %zu map-reduce rounds, %lld records shuffled\n",
              knn.value().stats.jobs.size(),
              static_cast<long long>(knn_shuffle));
  return 0;
}
