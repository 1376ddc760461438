#ifndef MWSJ_QUERY_BOUNDS_H_
#define MWSJ_QUERY_BOUNDS_H_

#include <vector>

#include "common/status.h"
#include "query/query.h"

namespace mwsj {

/// Largest range distance / replication bound the execution layers accept.
/// Two constraints meet here: Rect::EnlargeByDistance(d) must not push a
/// coordinate to ±inf (which breaks grid-cell routing — an inf-cornered
/// rectangle projects to no cell), and the squared-distance predicates
/// compare against d·d, which overflows above ~1.34e154. 1e150 leaves
/// headroom under both while being astronomically above any real dataset.
inline constexpr double kMaxQueryDistance = 1e150;

/// Rejects queries whose range distances — or the replication bounds they
/// induce together with `space` (the data's bounding rectangle) — are NaN,
/// infinite, or large enough to overflow EnlargeByDistance / the grid
/// transforms into ±inf. Call before routing; the per-record ingest checks
/// guarantee finite rectangles, this guards the query side.
Status ValidateQueryBounds(const Query& query, const Rect& space);

/// The reach rule: per-relation path bounds over the join graph. C-Rep-L's
/// f2 routing (§7.9 for overlap, §8 for range, footnote 3 for general
/// graphs) and the join round's reach prune (localjoin/multiway.h
/// OwnerReach) both answer one question with it: how far, per axis, can a
/// member of a tuple lie from another member?
///
/// A join-graph path from relation a to relation s costs
///
///     sum over path conditions of their distance  +
///     sum over intermediate relations of their extent
///
/// (the end relations are not charged), and each condition moves the
/// next member's near edge by at most its distance while each
/// intermediate member spans at most its extent. The bound of s is the
/// largest, over the other relations a, of the cheapest a→s path. For the
/// paper's chain of m relations with one global d_max this is the
/// published bound: (m−2)·d_max for the endpoints of an overlap chain,
/// (m−2)·d_max + (m−1)·d for a range chain.
///
/// `extents[r]` bounds relation r's rectangles on the axis in question:
/// their diagonal (the paper's d_max, per relation) for f2, their width or
/// height at one cell for the prune. A negative distance costs 0 and a NaN
/// one costs +inf (no limit along it). Returns the exact sums, one per
/// relation; consumers compare against ReachLimit of them. The bound
/// constrains each axis separately, so the Chebyshev cell distance is f2's
/// provably safe metric (grid/transform.h). Requires a valid (connected)
/// query.
std::vector<double> ComputeReplicationBounds(
    const Query& query, const std::vector<double>& extents);

/// Convenience overload with one extent for every relation.
std::vector<double> ComputeReplicationBounds(const Query& query,
                                             double global_extent);

/// Rounds a path bound outward, once, into the limit a consumer compares
/// against: the coordinate `origin + bound`, moved a further 1e-9 ·
/// (bound + |origin|) away from `origin`. The slack is far above the few
/// ulps by which the extents, the path sums, the sum with `origin` and
/// WithinDistance's gap can round, and far below any extent that prunes.
/// f2 takes ReachLimit(0, bound) as its cell distance, where an infinite
/// limit admits every f1 cell; the prune offsets its owner window by the
/// bound and treats a result that is not finite as no limit.
double ReachLimit(double origin, double bound);

}  // namespace mwsj

#endif  // MWSJ_QUERY_BOUNDS_H_
