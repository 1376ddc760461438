#include "query/bounds.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/str_format.h"

namespace mwsj {

Status ValidateQueryBounds(const Query& query, const Rect& space) {
  for (size_t ci = 0; ci < query.conditions().size(); ++ci) {
    const double d = query.conditions()[ci].predicate.distance();
    if (std::isnan(d) || d < 0) {
      return Status::InvalidArgument(StrFormat(
          "condition %zu: range distance %g is not a valid distance", ci, d));
    }
    if (d > kMaxQueryDistance) {
      return Status::InvalidArgument(StrFormat(
          "condition %zu: range distance %g exceeds the supported maximum "
          "%g (enlargement would overflow to inf and break cell routing)",
          ci, d, kMaxQueryDistance));
    }
  }
  if (!space.IsFinite()) {
    return Status::InvalidArgument(
        "data bounding space has a non-finite corner");
  }
  // The replication bounds sum edge distances with rectangle diagonals
  // (bounds.h): near-DBL_MAX coordinates can overflow them even when every
  // individual distance passes. Check the worst case: every relation's
  // d_max capped by the space diagonal.
  const double space_diagonal = space.Diagonal();
  if (!std::isfinite(space_diagonal) ||
      space_diagonal > kMaxQueryDistance) {
    return Status::InvalidArgument(StrFormat(
        "data bounding space diagonal %g exceeds the supported maximum %g",
        space_diagonal, kMaxQueryDistance));
  }
  for (const double bound : ComputeReplicationBounds(query, space_diagonal)) {
    if (!std::isfinite(bound) || bound > kMaxQueryDistance) {
      return Status::InvalidArgument(StrFormat(
          "replication bound %g (from the query's distances and the data "
          "extent) exceeds the supported maximum %g",
          bound, kMaxQueryDistance));
    }
  }
  return Status::OK();
}

std::vector<double> ComputeReplicationBounds(
    const Query& query, const std::vector<double>& extents) {
  const size_t n = static_cast<size_t>(query.num_relations());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // path[a][s]: the cheapest a→s path, charging the conditions and the
  // intermediate relations. Floyd–Warshall over at most 20 relations.
  std::vector<std::vector<double>> path(n, std::vector<double>(n, kInf));
  for (const JoinCondition& c : query.conditions()) {
    const double d = c.predicate.distance();
    const double cost = std::isnan(d) ? kInf : std::max(d, 0.0);
    const size_t l = static_cast<size_t>(c.left);
    const size_t r = static_cast<size_t>(c.right);
    path[l][r] = path[r][l] = std::min(path[l][r], cost);
  }
  for (size_t k = 0; k < n; ++k) {
    for (size_t a = 0; a < n; ++a) {
      for (size_t s = 0; s < n; ++s) {
        path[a][s] =
            std::min(path[a][s], path[a][k] + extents[k] + path[k][s]);
      }
    }
  }
  std::vector<double> bounds(n, 0.0);
  for (size_t s = 0; s < n; ++s) {
    for (size_t a = 0; a < n; ++a) {
      if (a != s) bounds[s] = std::max(bounds[s], path[a][s]);
    }
  }
  return bounds;
}

std::vector<double> ComputeReplicationBounds(const Query& query,
                                             double global_extent) {
  return ComputeReplicationBounds(
      query, std::vector<double>(static_cast<size_t>(query.num_relations()),
                                 global_extent));
}

double ReachLimit(double origin, double bound) {
  constexpr double kRelativeSlack = 1e-9;
  return origin + bound + kRelativeSlack * (bound + std::abs(origin));
}

}  // namespace mwsj
