#include "core/all_replicate.h"

#include "common/trace.h"
#include "core/cell_join.h"
#include "grid/transform.h"
#include "mapreduce/engine.h"

namespace mwsj {

StatusOr<JoinRunResult> AllReplicateJoin(
    const Query& query, const GridPartition& grid,
    const std::vector<std::vector<Rect>>& relations, bool count_only,
    const ExecutionContext& ctx) {
  Tracer* const tracer = ctx.tracer;
  TraceSpan algo_span(tracer, "all_replicate", "algorithm");
  algo_span.AddArg("relations", static_cast<int64_t>(query.num_relations()));
  algo_span.AddArg("cells", static_cast<int64_t>(grid.num_cells()));

  std::vector<RelRect> input;
  {
    size_t total = 0;
    for (const auto& rel : relations) total += rel.size();
    input.reserve(total);
  }
  for (size_t r = 0; r < relations.size(); ++r) {
    for (size_t i = 0; i < relations[r].size(); ++i) {
      input.push_back(RelRect{relations[r][i], static_cast<int64_t>(i),
                              static_cast<int32_t>(r)});
    }
  }

  using Job = MapReduceJob<RelRect, CellId, RelRect, IdTuple>;
  Job job("all_replicate", grid.num_cells());
  job.set_partition([](const CellId& c) { return static_cast<int>(c); });

  job.set_map([&grid](const RelRect& r, Job::Emitter& emit) {
    std::vector<CellId> cells;
    ReplicateF1Cells(grid, r.rect, &cells);
    for (CellId c : cells) emit.Emit(c, r);
  });

  job.set_reduce(CellJoinReduce<Job>(query, grid, count_only, tracer));

  JoinRunResult result;
  JobStats stats = job.Run(std::span<const RelRect>(input), &result.tuples, ctx);
  // A job with no reduce input never adds dedup counts; keep the keys.
  stats.user_counters.try_emplace(kCounterDedupTupleChecks, 0);
  stats.user_counters.try_emplace(kCounterDedupOwned, 0);
  // The map replicates every input record exactly once.
  algo_span.AddArg("replicate_f1_calls", stats.map_input_records);
  algo_span.AddArg("dedup_tuple_checks",
                   stats.user_counters.at(kCounterDedupTupleChecks));
  algo_span.AddArg("dedup_owned", stats.user_counters.at(kCounterDedupOwned));
  stats.user_counters[kCounterRectanglesReplicated] =
      static_cast<int64_t>(input.size());
  // The paper's "number of rectangles after replication" (§7.8.3) counts
  // rectangles received by reducers in the join round — here, every f1
  // copy, i.e. the job's intermediate records.
  stats.user_counters[kCounterRectanglesAfterReplication] =
      stats.intermediate_records;
  stats.user_counters[kCounterReplicationCopies] = stats.intermediate_records;
  result.num_tuples = count_only
                          ? stats.user_counters[kCounterTuplesCounted]
                          : static_cast<int64_t>(result.tuples.size());
  if (count_only) {
    // Keep the cost model honest: counted tuples would still have been
    // written by a real job.
    stats.reduce_output_records = result.num_tuples;
  }
  // The engine charged sizeof(IdTuple) per emitted tuple; a tuple is m ids
  // plus a length word in either mode.
  stats.reduce_output_bytes =
      stats.reduce_output_records * (8 * (query.num_relations() + 1));
  result.stats.Add(std::move(stats));
  {
    TraceSpan sort_span(tracer, "sort_tuples", "stage");
    SortTuples(&result.tuples);
  }
  algo_span.AddArg("output_tuples", result.num_tuples);
  return result;
}

}  // namespace mwsj
