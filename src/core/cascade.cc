#include "core/cascade.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "common/str_format.h"
#include "common/trace.h"
#include "core/dedup.h"
#include "grid/transform.h"
#include "localjoin/rtree.h"
#include "mapreduce/engine.h"

namespace mwsj {

namespace {

// One record of a cascade step's input: either an intermediate tuple
// (components aligned with the bound-relation prefix) or a candidate
// rectangle of the incoming relation (single component).
struct CascadeRecord {
  std::vector<LocalRect> components;
  bool is_tuple = false;
};

// Approximate serialized size: ids + one (rect, id) per component.
int64_t CascadeRecordBytes(const CascadeRecord& r) {
  return 8 + static_cast<int64_t>(r.components.size()) * 40;
}

// Default order: breadth-first from relation 0. Guaranteed to exist and
// cover all relations because the query graph is connected.
std::vector<int> DefaultOrder(const Query& query) {
  std::vector<int> order = {0};
  std::vector<bool> bound(static_cast<size_t>(query.num_relations()), false);
  bound[0] = true;
  for (size_t k = 0; k < order.size(); ++k) {
    for (int ci : query.ConditionsOf(order[k])) {
      const JoinCondition& c = query.conditions()[static_cast<size_t>(ci)];
      const int other = (c.left == order[k]) ? c.right : c.left;
      if (!bound[static_cast<size_t>(other)]) {
        bound[static_cast<size_t>(other)] = true;
        order.push_back(other);
      }
    }
  }
  return order;
}

Status ValidateOrder(const Query& query, const std::vector<int>& order) {
  const int m = query.num_relations();
  if (static_cast<int>(order.size()) != m) {
    return Status::InvalidArgument("join_order must list every relation");
  }
  std::vector<bool> seen(static_cast<size_t>(m), false);
  for (size_t k = 0; k < order.size(); ++k) {
    const int r = order[k];
    if (r < 0 || r >= m || seen[static_cast<size_t>(r)]) {
      return Status::InvalidArgument("join_order must be a permutation");
    }
    seen[static_cast<size_t>(r)] = true;
    if (k == 0) continue;
    bool connected = false;
    for (int ci : query.ConditionsOf(r)) {
      const JoinCondition& c = query.conditions()[static_cast<size_t>(ci)];
      const int other = (c.left == r) ? c.right : c.left;
      for (size_t j = 0; j < k; ++j) {
        if (order[j] == other) connected = true;
      }
    }
    if (!connected) {
      return Status::InvalidArgument(StrFormat(
          "join_order: relation %d has no condition to an earlier relation",
          r));
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<JoinRunResult> CascadeJoin(
    const Query& query, const GridPartition& grid,
    const std::vector<std::vector<Rect>>& relations,
    std::vector<int> join_order, bool count_only, const ExecutionContext& ctx) {
  if (join_order.empty()) join_order = DefaultOrder(query);
  MWSJ_RETURN_IF_ERROR(ValidateOrder(query, join_order));

  Tracer* const tracer = ctx.tracer;
  TraceSpan algo_span(tracer, "cascade", "algorithm");
  algo_span.AddArg("relations", static_cast<int64_t>(query.num_relations()));
  algo_span.AddArg("steps", static_cast<int64_t>(join_order.size() - 1));

  JoinRunResult result;

  // position_of[r] = slot of relation r in a tuple's component list.
  std::vector<int> position_of(static_cast<size_t>(query.num_relations()), -1);
  position_of[static_cast<size_t>(join_order[0])] = 0;

  // Seed: the first relation as single-component tuples.
  std::vector<CascadeRecord> tuples;
  tuples.reserve(relations[static_cast<size_t>(join_order[0])].size());
  {
    TraceSpan seed_span(tracer, "cascade_seed", "stage");
    seed_span.AddArg(
        "records",
        static_cast<int64_t>(relations[static_cast<size_t>(join_order[0])]
                                 .size()));
    const auto& first = relations[static_cast<size_t>(join_order[0])];
    for (size_t i = 0; i < first.size(); ++i) {
      CascadeRecord rec;
      rec.is_tuple = true;
      rec.components.push_back(LocalRect{first[i], static_cast<int64_t>(i)});
      tuples.push_back(std::move(rec));
    }
  }

  int64_t counted = 0;
  for (size_t step = 1; step < join_order.size(); ++step) {
    const int incoming = join_order[step];
    TraceSpan step_span(tracer, StrFormat("cascade_step_%zu", step), "stage");
    step_span.AddArg("incoming_relation", static_cast<int64_t>(incoming));
    // The final step may count matches instead of materializing them.
    const bool count_this_step =
        count_only && step + 1 == join_order.size();

    // Conditions connecting the incoming relation to bound relations; the
    // first is the anchor that drives routing and duplicate avoidance.
    struct Link {
      const JoinCondition* condition;
      int bound_position;
    };
    std::vector<Link> links;
    for (int ci : query.ConditionsOf(incoming)) {
      const JoinCondition& c = query.conditions()[static_cast<size_t>(ci)];
      const int other = (c.left == incoming) ? c.right : c.left;
      if (position_of[static_cast<size_t>(other)] >= 0) {
        links.push_back(Link{&c, position_of[static_cast<size_t>(other)]});
      }
    }
    // ValidateOrder guarantees links is non-empty.
    const Link anchor = links[0];
    const Predicate anchor_pred = anchor.condition->predicate;
    const double anchor_d =
        anchor_pred.is_range() ? anchor_pred.distance() : 0.0;

    // Assemble job input: current tuples + incoming relation records.
    std::vector<CascadeRecord> input;
    const auto& incoming_data = relations[static_cast<size_t>(incoming)];
    input.reserve(tuples.size() + incoming_data.size());
    int64_t input_bytes = 0;
    for (CascadeRecord& t : tuples) {
      input_bytes += CascadeRecordBytes(t);
      input.push_back(std::move(t));
    }
    tuples.clear();
    for (size_t i = 0; i < incoming_data.size(); ++i) {
      CascadeRecord rec;
      rec.is_tuple = false;
      rec.components.push_back(
          LocalRect{incoming_data[i], static_cast<int64_t>(i)});
      input_bytes += CascadeRecordBytes(rec);
      input.push_back(std::move(rec));
    }

    using Job = MapReduceJob<CascadeRecord, CellId, CascadeRecord,
                             CascadeRecord>;
    Job job(StrFormat("cascade_step_%zu_join_%s", step,
                      query.relation_names()[static_cast<size_t>(incoming)]
                          .c_str()),
            grid.num_cells());
    job.set_partition([](const CellId& c) { return static_cast<int>(c); });
    job.set_value_size(CascadeRecordBytes);

    job.set_map([&grid, anchor, anchor_pred, anchor_d](
                    const CascadeRecord& rec, Job::Emitter& emit) {
      std::vector<CellId> cells;
      if (rec.is_tuple) {
        const Rect& route_by =
            rec.components[static_cast<size_t>(anchor.bound_position)].rect;
        if (anchor_pred.is_range()) {
          EnlargedSplitCells(grid, route_by, anchor_d, &cells);
        } else {
          SplitCells(grid, route_by, &cells);
        }
      } else {
        SplitCells(grid, rec.components[0].rect, &cells);
      }
      for (CellId c : cells) emit.Emit(c, rec);
    });

    job.set_reduce([&grid, &links, anchor, anchor_pred, anchor_d,
                    count_this_step](
                       const CellId& cell,
                       std::span<const CascadeRecord> values,
                       Job::OutEmitter& out) {
      std::vector<const CascadeRecord*> local_tuples;
      std::vector<const CascadeRecord*> candidates;
      std::vector<Rect> candidate_rects;
      for (const CascadeRecord& v : values) {
        if (v.is_tuple) {
          local_tuples.push_back(&v);
        } else {
          candidates.push_back(&v);
          candidate_rects.push_back(v.components[0].rect);
        }
      }
      if (local_tuples.empty() || candidates.empty()) return;
      const RTree tree(candidate_rects);

      RTree::QueryScratch scratch;
      std::vector<int32_t> matches;
      // Per-call tallies in locals, published once below through the
      // attempt-scoped counters (a re-executed attempt must not
      // double-count).
      int64_t checks = 0;
      int64_t owned = 0;
      int64_t counted = 0;
      for (const CascadeRecord* t : local_tuples) {
        const Rect& anchor_rect =
            t->components[static_cast<size_t>(anchor.bound_position)].rect;
        matches.clear();
        tree.Collect(anchor_pred, anchor_rect, &scratch, &matches);
        for (int32_t mi : matches) {
          const CascadeRecord* cand = candidates[static_cast<size_t>(mi)];
          const Rect& cand_rect = cand->components[0].rect;
          // Duplicate avoidance on the anchor pair (§5.2 / §5.3).
          ++checks;
          const bool owns =
              anchor_pred.is_overlap()
                  ? OwnsOverlapPair(grid, cell, anchor_rect, cand_rect)
                  : OwnsRangePair(grid, cell, anchor_rect, cand_rect,
                                  anchor_d);
          if (!owns) continue;
          ++owned;
          // Residual conditions to other bound relations.
          bool ok = true;
          for (size_t li = 1; li < links.size(); ++li) {
            const Rect& other =
                t->components[static_cast<size_t>(links[li].bound_position)]
                    .rect;
            if (!links[li].condition->predicate.Evaluate(cand_rect, other)) {
              ok = false;
              break;
            }
          }
          if (!ok) continue;
          if (count_this_step) {
            ++counted;
            continue;
          }
          CascadeRecord merged;
          merged.is_tuple = true;
          merged.components = t->components;
          merged.components.push_back(cand->components[0]);
          out.Emit(std::move(merged));
        }
      }
      out.IncrementCounter(kCounterDedupPairChecks, checks);
      out.IncrementCounter(kCounterDedupOwned, owned);
      if (count_this_step) out.IncrementCounter(kCounterTuplesCounted, counted);
    });

    std::vector<CascadeRecord> next;
    JobStats stats = job.Run(std::span<const CascadeRecord>(input), &next, ctx);
    // A step whose reducers see no tuple/candidate pair adds no dedup
    // counts; keep the keys.
    stats.user_counters.try_emplace(kCounterDedupPairChecks, 0);
    stats.user_counters.try_emplace(kCounterDedupOwned, 0);
    // The map splits every record once — tuples under a range anchor via
    // EnlargedSplitCells, which splits the enlarged rectangle.
    const int64_t tuple_records = stats.map_input_records -
                                  static_cast<int64_t>(incoming_data.size());
    step_span.AddArg("split_calls", stats.map_input_records);
    step_span.AddArg("enlarged_split_calls",
                     anchor_pred.is_range() ? tuple_records : 0);
    step_span.AddArg("dedup_pair_checks",
                     stats.user_counters.at(kCounterDedupPairChecks));
    step_span.AddArg("dedup_owned", stats.user_counters.at(kCounterDedupOwned));
    step_span.AddArg("output_records",
                     static_cast<int64_t>(next.size()));
    // Engine charges sizeof(In/Out) per record; replace with the real
    // variable-length accounting. In count-only mode the final step's
    // counted tuples still represent output a real job would write.
    stats.map_input_bytes = input_bytes;
    if (count_this_step) {
      counted = stats.user_counters[kCounterTuplesCounted];
      stats.reduce_output_records = counted;
    }
    stats.reduce_output_bytes =
        stats.reduce_output_records * (8 + 40 * static_cast<int64_t>(step + 1));
    result.stats.Add(std::move(stats));

    position_of[static_cast<size_t>(incoming)] = static_cast<int>(step);
    tuples = std::move(next);
  }

  if (count_only) {
    result.num_tuples = counted;
    algo_span.AddArg("output_tuples", result.num_tuples);
    return result;
  }
  // Write relation-ordered id rows straight into the result block, freeing
  // each step record while it is still in cache, and sort.
  Stopwatch post_join;
  TraceSpan finalize_span(tracer, "cascade_finalize", "stage");
  const size_t m = static_cast<size_t>(query.num_relations());
  result.tuples = TupleBlock(m);
  result.tuples.reserve(tuples.size());
  for (CascadeRecord& t : tuples) {
    const std::span<int64_t> row = result.tuples.AppendRow();
    for (size_t r = 0; r < m; ++r) {
      row[r] = t.components[static_cast<size_t>(position_of[r])].id;
    }
    std::vector<LocalRect>().swap(t.components);
  }
  std::vector<CascadeRecord>().swap(tuples);
  SortTuples(&result.tuples);
  result.num_tuples = static_cast<int64_t>(result.tuples.size());
  finalize_span.End();
  result.stats.post_join_seconds += post_join.ElapsedSeconds();
  algo_span.AddArg("output_tuples", result.num_tuples);
  return result;
}

}  // namespace mwsj
