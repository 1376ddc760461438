#ifndef MWSJ_CORE_CELL_JOIN_H_
#define MWSJ_CORE_CELL_JOIN_H_

#include <span>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "core/dedup.h"
#include "core/records.h"
#include "grid/grid_partition.h"
#include "localjoin/multiway.h"
#include "query/query.h"

namespace mwsj {

/// The join round's reduce body, shared by C-Rep / C-Rep-L round 2 and
/// All-Replicate: bucket the cell's records by relation, run the multiway
/// local join under the cell's owner window, keep the tuples the exact
/// §6.2 OwnsTuple check assigns to `cell`, and emit their ids (or only
/// count them). The window (GridPartition::QuadrantXLo/QuadrantYHi) prunes
/// exactly the tuples whose reference point lies left of or above the
/// cell, which no routing can make owned; under the up-left routings of
/// these algorithms it leaves only owned tuples, so dedup_tuple_checks
/// equals dedup_owned. The leaf check keeps the emitted set independent of
/// the window's floating-point edges.
///
/// Two paths, picked by the query's shape alone:
///  * count: count_only on a tree-shaped join graph runs
///    MultiwayLocalJoin::Count, the factorized count, which never
///    assembles a tuple. It relies on window ⇔ ownership under the up-left
///    routings, so there "checks" are the tuples whose ownership the
///    window class decided: dedup_tuple_checks == dedup_owned ==
///    tuples_counted.
///  * enumerate: every materialized join, and cyclic graphs (kCycle3,
///    cliques) counted or not, run Execute with the OwnsTuple leaf check.
/// Both publish local_join_probes, and the `local_join` span names its
/// path.
///
/// Dedup tallies live in locals and are published once per call through
/// the attempt-scoped counters, so a re-executed attempt never
/// double-counts. `Job` is a MapReduceJob keyed by CellId with RelRect
/// values and IdTuple output; `query`, `grid` and `tracer` must outlive it.
template <typename Job>
typename Job::ReduceFn CellJoinReduce(const Query& query,
                                      const GridPartition& grid,
                                      bool count_only, Tracer* tracer) {
  const bool count_path = count_only && query.IsTree();
  return [&query, &grid, count_only, count_path, tracer](
             const CellId& cell, std::span<const RelRect> values,
             typename Job::OutEmitter& out) {
    TraceSpan local_span(tracer, "local_join", "task");
    local_span.AddArg("cell", static_cast<int64_t>(cell));
    local_span.AddArg("records", static_cast<int64_t>(values.size()));
    local_span.AddArg("path", count_path ? "count" : "enumerate");
    const size_t m = static_cast<size_t>(query.num_relations());
    std::vector<std::vector<LocalRect>> per_relation(m);
    for (const RelRect& v : values) {
      per_relation[static_cast<size_t>(v.relation)].push_back(
          LocalRect{v.rect, v.id});
    }
    std::vector<std::span<const LocalRect>> spans;
    spans.reserve(m);
    for (const auto& rel : per_relation) {
      spans.emplace_back(rel.data(), rel.size());
    }
    const MultiwayLocalJoin local(
        query, std::move(spans),
        {grid.QuadrantXLo(cell), grid.QuadrantYHi(cell)});
    int64_t probes = 0;
    int64_t checks = 0;
    int64_t owned = 0;
    if (count_path) {
      checks = owned = local.Count(&probes);
    } else {
      std::vector<const Rect*> member_rects(m);
      local.Execute(
          [&](const std::vector<const LocalRect*>& members) {
            for (size_t r = 0; r < m; ++r) member_rects[r] = &members[r]->rect;
            ++checks;
            if (!OwnsTuple(grid, cell, member_rects)) return;
            ++owned;
            if (count_only) return;
            IdTuple ids(m);
            for (size_t r = 0; r < m; ++r) ids[r] = members[r]->id;
            out.Emit(std::move(ids));
          },
          &probes);
    }
    out.IncrementCounter(kCounterDedupTupleChecks, checks);
    out.IncrementCounter(kCounterDedupOwned, owned);
    if (count_only) out.IncrementCounter(kCounterTuplesCounted, owned);
    out.IncrementCounter(kCounterLocalJoinProbes, probes);
  };
}

}  // namespace mwsj

#endif  // MWSJ_CORE_CELL_JOIN_H_
