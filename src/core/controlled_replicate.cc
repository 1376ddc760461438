#include "core/controlled_replicate.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/all_replicate.h"
#include "core/dedup.h"
#include "localjoin/multiway.h"
#include "mapreduce/engine.h"
#include "query/bounds.h"

namespace mwsj {

namespace {

// ---------------------------------------------------------------------------
// Round-1 marking.
// ---------------------------------------------------------------------------

// Distance from `r` (inside cell `cell`) to the nearest *other* cell.
// Zero when the rectangle extends beyond (or touches nothing — strictly
// crosses) the closed cell; otherwise the smallest gap to a side of the
// cell that has a neighbor. Infinity on a 1x1 grid, where no foreign cell
// exists.
double ForeignCellDistance(const GridPartition& grid, CellId cell,
                           const Rect& cell_rect, const Rect& r) {
  if (!cell_rect.Contains(r)) return 0;
  double best = std::numeric_limits<double>::infinity();
  const int row = grid.RowOf(cell);
  const int col = grid.ColOf(cell);
  if (col > 0) best = std::min(best, r.min_x() - cell_rect.min_x());
  if (col < grid.cols() - 1) best = std::min(best, cell_rect.max_x() - r.max_x());
  if (row > 0) best = std::min(best, cell_rect.max_y() - r.max_y());
  if (row < grid.rows() - 1) best = std::min(best, r.min_y() - cell_rect.min_y());
  return best;
}

// One connected proper subset S of the query's relations. A rectangle u
// is marked iff some rectangle-set over a relation subset S containing
// rel(u) satisfies C1-C3, and only connected subsets need checking: the
// part of a witness in the induced component S' holding u is a witness
// over S' (each relation of S' keeps exactly its conditions leaving S, so
// its C2 requirements are unchanged, and S' is proper, so C3 holds). Every
// proper subset of the connected join graph has a leaving condition (C3).
struct MarkingSubset {
  // Query relations of S in ascending order; member k is relation k of
  // `induced`.
  std::vector<int> members;
  // The conditions with both ends in S, renumbered (unset when S is a
  // single relation, which has no condition).
  std::optional<Query> induced;
  // Per member: the predicates of its conditions leaving S (C2).
  std::vector<std::vector<Predicate>> requirements;
};

// Every connected proper subset of the query's relations, with its induced
// subquery and C2 requirements. Depends on the query alone.
std::vector<MarkingSubset> MarkingSubsets(const Query& query) {
  const int m = query.num_relations();
  std::vector<uint32_t> neighbors(static_cast<size_t>(m), 0);
  for (const JoinCondition& c : query.conditions()) {
    neighbors[static_cast<size_t>(c.left)] |= 1u << c.right;
    neighbors[static_cast<size_t>(c.right)] |= 1u << c.left;
  }
  std::vector<MarkingSubset> subsets;
  const uint32_t full = (1u << m) - 1;
  for (uint32_t subset = 1; subset < full; ++subset) {
    // Grow the component of the lowest member within the subset.
    uint32_t reached = subset & (~subset + 1);
    for (uint32_t grown = 0; grown != reached;) {
      grown = reached;
      for (int r = 0; r < m; ++r) {
        if (grown & (1u << r)) reached |= neighbors[static_cast<size_t>(r)];
      }
      reached &= subset;
    }
    if (reached != subset) continue;

    MarkingSubset s;
    std::vector<int> local(static_cast<size_t>(m), -1);
    QueryBuilder builder;
    for (int r = 0; r < m; ++r) {
      if ((subset & (1u << r)) == 0) continue;
      local[static_cast<size_t>(r)] = static_cast<int>(s.members.size());
      s.members.push_back(r);
      builder.AddRelation(query.relation_names()[static_cast<size_t>(r)]);
    }
    s.requirements.resize(s.members.size());
    for (const JoinCondition& c : query.conditions()) {
      const int left = local[static_cast<size_t>(c.left)];
      const int right = local[static_cast<size_t>(c.right)];
      if (left >= 0 && right >= 0) {
        builder.AddCondition(left, right, c.predicate);
      } else if (left >= 0 || right >= 0) {
        // The condition leaves S from its member end.
        s.requirements[static_cast<size_t>(left >= 0 ? left : right)]
            .push_back(c.predicate);
      }
    }
    if (s.members.size() > 1) s.induced = builder.Build().value();
    subsets.push_back(std::move(s));
  }
  return subsets;
}

// The marking decision of one cell over the given subsets (see
// MarkRectanglesForCell). Adds the local joins' anchor probes to `*probes`.
std::vector<std::vector<char>> MarkCell(
    const std::vector<MarkingSubset>& subsets, const GridPartition& grid,
    CellId cell, const std::vector<std::vector<LocalRect>>& cell_rects,
    int64_t* probes) {
  const Rect cell_rect = grid.CellRect(cell);
  const size_t m = cell_rects.size();
  std::vector<std::vector<char>> marked(m);
  std::vector<std::vector<char>> crossing(m);
  std::vector<std::vector<double>> foreign_dist(m);
  for (size_t r = 0; r < m; ++r) {
    marked[r].assign(cell_rects[r].size(), 0);
    for (const LocalRect& u : cell_rects[r]) {
      // A rectangle contained in the closed cell cannot meet any rectangle
      // that is disjoint from the closed cell, so "crosses the boundary" is
      // implemented as "not contained in the closed cell" — equivalent to
      // the paper's condition for every configuration that can produce
      // output, and never replicating more.
      crossing[r].push_back(cell_rect.Contains(u.rect) ? 0 : 1);
      foreign_dist[r].push_back(
          ForeignCellDistance(grid, cell, cell_rect, u.rect));
    }
  }

  // Per subset: each member's C2-eligible rectangles, tagged with their
  // index in cell_rects; then mark every member of every assignment the
  // induced subquery's local join finds over them.
  std::vector<std::vector<LocalRect>> eligible;
  std::vector<std::span<const LocalRect>> spans;
  for (const MarkingSubset& s : subsets) {
    eligible.resize(s.members.size());
    spans.clear();
    for (size_t k = 0; k < s.members.size(); ++k) {
      const size_t r = static_cast<size_t>(s.members[k]);
      eligible[k].clear();
      for (size_t i = 0; i < cell_rects[r].size(); ++i) {
        const bool ok = std::all_of(
            s.requirements[k].begin(), s.requirements[k].end(),
            [&](const Predicate& p) {
              return p.is_overlap() ? crossing[r][i] != 0
                                    : foreign_dist[r][i] <= p.distance();
            });
        if (ok) {
          eligible[k].push_back(
              LocalRect{cell_rects[r][i].rect, static_cast<int64_t>(i)});
        }
      }
      if (eligible[k].empty()) break;  // No assignment over S exists.
      spans.emplace_back(eligible[k].data(), eligible[k].size());
    }
    if (spans.size() < s.members.size()) continue;
    if (!s.induced.has_value()) {
      for (const LocalRect& u : eligible[0]) {
        marked[static_cast<size_t>(s.members[0])][static_cast<size_t>(u.id)] =
            1;
      }
      continue;
    }
    int64_t subset_probes = 0;
    MultiwayLocalJoin(*s.induced, spans)
        .Execute(
            [&](const std::vector<const LocalRect*>& assignment) {
              for (size_t k = 0; k < assignment.size(); ++k) {
                marked[static_cast<size_t>(s.members[k])]
                      [static_cast<size_t>(assignment[k]->id)] = 1;
              }
            },
            &subset_probes);
    *probes += subset_probes;
  }

  // Only the rectangles starting in the cell are decided here.
  for (size_t r = 0; r < m; ++r) {
    for (size_t i = 0; i < cell_rects[r].size(); ++i) {
      if (grid.CellOfRect(cell_rects[r][i].rect) != cell) marked[r][i] = 0;
    }
  }
  return marked;
}

}  // namespace

std::vector<std::vector<char>> MarkRectanglesForCell(
    const Query& query, const GridPartition& grid, CellId cell,
    const std::vector<std::vector<LocalRect>>& cell_rects) {
  int64_t probes = 0;
  return MarkCell(MarkingSubsets(query), grid, cell, cell_rects, &probes);
}

// ---------------------------------------------------------------------------
// Round 2: the join round of the replicate family.
// ---------------------------------------------------------------------------

namespace {

// The round's output record is one TupleBlock per cell that owns tuples.
using JoinJob = MapReduceJob<MarkedRect, CellId, RelRect, TupleBlock>;

// Every rectangle of every relation as one record, tagged with its
// relation and its index there.
template <typename Record>
std::vector<Record> FlattenRelations(
    const std::vector<std::vector<Rect>>& relations) {
  size_t total = 0;
  for (const auto& rel : relations) total += rel.size();
  std::vector<Record> records;
  records.reserve(total);
  for (size_t r = 0; r < relations.size(); ++r) {
    for (size_t i = 0; i < relations[r].size(); ++i) {
      records.push_back(Record{relations[r][i], static_cast<int64_t>(i),
                               static_cast<int32_t>(r)});
    }
  }
  return records;
}

// The join round's reduce body: bucket the cell's records by relation,
// dropping those the owner window's reach (OwnerReach: the reach rule over
// the cell's per-relation widths and heights) rules out, run the
// multiway local join under the cell's owner window, keep the tuples the
// exact §6.2 OwnsTuple check assigns to `cell`, and append their ids to one
// cell-local TupleBlock, emitted once when non-empty (or only count them).
// The reach drops only rectangles no windowed assignment can contain, so
// the local join emits and counts the same tuples as over every record; a
// replicated copy far right of or below the cell's top-left corner is the
// common case it drops, since f1 ships each rectangle to its whole fourth
// quadrant.
// The window (GridPartition::QuadrantXLo/QuadrantYHi) prunes
// exactly the tuples whose reference point lies left of or above the cell,
// which no routing can make owned; under the up-left routings of this round
// it leaves only owned tuples, so dedup_tuple_checks equals dedup_owned. The
// leaf check keeps the emitted set independent of the window's
// floating-point edges.
//
// count_only runs MultiwayLocalJoin::Count, which never assembles a tuple
// (on a tree query it is the factorized fold). It relies on window ⇔
// ownership under the up-left routings, so there "checks" are the tuples
// whose ownership the window class decided: dedup_tuple_checks ==
// dedup_owned == tuples_counted. A materialized join runs Execute with
// the OwnsTuple leaf check. Both publish local_join_probes and
// local_join_rects_pruned, and the `local_join` span names the records it
// `kept`.
//
// Dedup tallies live in locals and are published once per call through the
// attempt-scoped counters, so a re-executed attempt never double-counts.
void JoinCell(const Query& query, const GridPartition& grid, bool count_only,
              Tracer* tracer, CellId cell, std::span<const RelRect> values,
              JoinJob::OutEmitter& out) {
  TraceSpan local_span(tracer, "local_join", "task");
  local_span.AddArg("cell", static_cast<int64_t>(cell));
  local_span.AddArg("records", static_cast<int64_t>(values.size()));
  const size_t m = static_cast<size_t>(query.num_relations());
  const OwnerWindow window{grid.QuadrantXLo(cell), grid.QuadrantYHi(cell)};
  std::vector<double> max_length(m, 0.0);
  std::vector<double> max_breadth(m, 0.0);
  for (const RelRect& v : values) {
    const size_t r = static_cast<size_t>(v.relation);
    max_length[r] = std::max(max_length[r], v.rect.length());
    max_breadth[r] = std::max(max_breadth[r], v.rect.breadth());
  }
  const OwnerReach reach =
      OwnerReach::Of(window, ComputeReplicationBounds(query, max_length),
                     ComputeReplicationBounds(query, max_breadth));
  std::vector<std::vector<LocalRect>> per_relation(m);
  int64_t kept = 0;
  for (const RelRect& v : values) {
    if (!reach.Admits(v.relation, v.rect)) continue;
    per_relation[static_cast<size_t>(v.relation)].push_back(
        LocalRect{v.rect, v.id});
    ++kept;
  }
  local_span.AddArg("kept", kept);
  std::vector<std::span<const LocalRect>> spans;
  spans.reserve(m);
  for (const auto& rel : per_relation) {
    spans.emplace_back(rel.data(), rel.size());
  }
  const MultiwayLocalJoin local(query, std::move(spans), window);
  int64_t probes = 0;
  int64_t checks = 0;
  int64_t owned = 0;
  if (count_only) {
    checks = owned = local.Count(&probes);
  } else {
    std::vector<const Rect*> member_rects(m);
    TupleBlock owned_tuples(m);
    local.Execute(
        [&](const std::vector<const LocalRect*>& members) {
          for (size_t r = 0; r < m; ++r) member_rects[r] = &members[r]->rect;
          ++checks;
          if (!OwnsTuple(grid, cell, member_rects)) return;
          ++owned;
          const std::span<int64_t> row = owned_tuples.AppendRow();
          for (size_t r = 0; r < m; ++r) row[r] = members[r]->id;
        },
        &probes);
    if (!owned_tuples.empty()) out.Emit(std::move(owned_tuples));
  }
  out.IncrementCounter(kCounterDedupTupleChecks, checks);
  out.IncrementCounter(kCounterDedupOwned, owned);
  if (count_only) out.IncrementCounter(kCounterTuplesCounted, owned);
  out.IncrementCounter(kCounterLocalJoinProbes, probes);
  out.IncrementCounter(kCounterLocalJoinRectsPruned,
                       static_cast<int64_t>(values.size()) - kept);
}

// What tells one join round of the family from another.
struct JoinRound {
  const char* job_name;
  // Stage span that carries the round's args; null puts them on the
  // algorithm span (All-Replicate, whose one job is the whole algorithm).
  const char* stage_span;
  // Marked rectangles replicate with f1 when null, else with f2 within
  // their relation's bound under `metric` (C-Rep-L).
  const std::vector<double>* f2_bounds;
  DistanceMetric metric;
  bool count_only;
};

// Runs one join round over `input`, of which `replicated` records are
// marked: each unmarked record is projected to its start cell, each marked
// one replicated, and every cell joins what it receives (JoinCell). Appends
// the job's stats to `result`, stores its sorted tuples and sets num_tuples.
// The concatenation and sort of the cells' blocks run after the job, in the
// `sort_tuples` stage, and are charged to RunStats::post_join_seconds.
void RunJoinRound(const Query& query, const GridPartition& grid,
                  const JoinRound& round, std::span<const MarkedRect> input,
                  int64_t replicated, TraceSpan& algo_span,
                  const ExecutionContext& ctx, JoinRunResult* result) {
  JoinJob job(round.job_name, grid.num_cells());
  job.set_partition([](const CellId& c) { return static_cast<int>(c); });
  job.set_map([&grid, &round](const MarkedRect& r, JoinJob::Emitter& emit) {
    const RelRect payload{r.rect, r.id, r.relation};
    if (!r.marked) {
      emit.Emit(ProjectCell(grid, r.rect), payload);
      return;
    }
    std::vector<CellId> cells;
    if (round.f2_bounds != nullptr) {
      ReplicateF2Cells(grid, r.rect,
                       (*round.f2_bounds)[static_cast<size_t>(r.relation)],
                       round.metric, &cells);
    } else {
      ReplicateF1Cells(grid, r.rect, &cells);
    }
    for (CellId c : cells) emit.Emit(c, payload);
  });
  job.set_reduce([&query, &grid, count_only = round.count_only,
                  tracer = ctx.tracer](const CellId& cell,
                                       std::span<const RelRect> values,
                                       JoinJob::OutEmitter& out) {
    JoinCell(query, grid, count_only, tracer, cell, values, out);
  });

  std::optional<TraceSpan> stage;
  if (round.stage_span != nullptr) {
    stage.emplace(ctx.tracer, round.stage_span, "stage");
  }
  TraceSpan& span = stage.has_value() ? *stage : algo_span;
  std::vector<TupleBlock> cell_blocks;
  JobStats stats = job.Run(input, &cell_blocks, ctx);
  // A job with no reduce input adds no dedup counts; keep the keys for
  // stable stats output.
  auto& counters = stats.user_counters;
  counters.try_emplace(kCounterDedupTupleChecks, 0);
  counters.try_emplace(kCounterDedupOwned, 0);
  // Each unmarked record is projected to exactly one cell, so every other
  // intermediate record is a replicated copy. The paper's "number of
  // rectangles after replication" (§7.8.3) counts everything the join
  // round's reducers receive: one copy per projected rectangle plus every
  // replicated copy (this is what makes Table 2's C-Rep column ~= nI plus
  // a small replication overhead).
  const int64_t projected = stats.map_input_records - replicated;
  counters[kCounterRectanglesReplicated] = replicated;
  counters[kCounterReplicationCopies] = stats.intermediate_records - projected;
  counters[kCounterRectanglesAfterReplication] = stats.intermediate_records;
  const bool f2 = round.f2_bounds != nullptr;
  span.AddArg("project_calls", projected);
  span.AddArg("replicate_f1_calls", f2 ? 0 : replicated);
  span.AddArg("replicate_f2_calls", f2 ? replicated : 0);
  span.AddArg("dedup_tuple_checks", counters.at(kCounterDedupTupleChecks));
  span.AddArg("dedup_owned", counters.at(kCounterDedupOwned));
  if (stage.has_value()) stage->End();

  if (round.count_only) {
    result->num_tuples = counters[kCounterTuplesCounted];
  } else {
    Stopwatch post_join;
    TraceSpan sort_span(ctx.tracer, "sort_tuples", "stage");
    size_t rows = 0;
    for (const TupleBlock& block : cell_blocks) rows += block.size();
    sort_span.AddArg("tuples", static_cast<int64_t>(rows));
    result->tuples = TupleBlock(static_cast<size_t>(query.num_relations()));
    result->tuples.reserve(rows);
    for (TupleBlock& block : cell_blocks) {
      result->tuples.Append(block);
      block = TupleBlock();  // Free each cell's rows once copied.
    }
    SortTuples(&result->tuples);
    result->num_tuples = static_cast<int64_t>(rows);
    sort_span.End();
    result->stats.post_join_seconds += post_join.ElapsedSeconds();
  }
  // The engine counted one output record per cell block; report tuples, as
  // a real job writing them would (counted tuples included). A tuple is m
  // ids plus a length word in either mode.
  stats.reduce_output_records = result->num_tuples;
  stats.reduce_output_bytes =
      stats.reduce_output_records * (8 * (query.num_relations() + 1));
  result->stats.Add(std::move(stats));
  algo_span.AddArg("output_tuples", result->num_tuples);
}

// Round 1: split everything; each reducer marks the rectangles that start
// in its cell and must be replicated, and emits every such rectangle once.
// The marking subsets are listed once here, for every reducer of the job.
// Appends the job's stats to `result`.
std::vector<MarkedRect> RunMarkingRound(
    const Query& query, const GridPartition& grid,
    const std::vector<std::vector<Rect>>& relations,
    const ExecutionContext& ctx, TraceSpan& round_span,
    JoinRunResult* result) {
  const size_t m = static_cast<size_t>(query.num_relations());
  const std::vector<MarkingSubset> subsets = MarkingSubsets(query);
  using Round1 = MapReduceJob<RelRect, CellId, RelRect, MarkedRect>;
  Round1 round1("crep_round1_mark", grid.num_cells());
  round1.set_partition([](const CellId& c) { return static_cast<int>(c); });
  round1.set_map([&grid](const RelRect& r, Round1::Emitter& emit) {
    std::vector<CellId> cells;
    SplitCells(grid, r.rect, &cells);
    for (CellId c : cells) emit.Emit(c, r);
  });
  round1.set_reduce([&grid, &subsets, m](const CellId& cell,
                                         std::span<const RelRect> values,
                                         Round1::OutEmitter& out) {
    std::vector<std::vector<LocalRect>> per_relation(m);
    for (const RelRect& v : values) {
      per_relation[static_cast<size_t>(v.relation)].push_back(
          LocalRect{v.rect, v.id});
    }
    // Published once per call through the attempt-scoped counters, so a
    // re-executed attempt never double-counts.
    int64_t probes = 0;
    const std::vector<std::vector<char>> marked =
        MarkCell(subsets, grid, cell, per_relation, &probes);
    out.IncrementCounter(kCounterLocalJoinProbes, probes);
    // Emit each rectangle exactly once, from its start cell. `values` was
    // bucketed in order, so a per-relation cursor is each record's
    // position in its relation's list.
    std::vector<size_t> cursor(m, 0);
    for (const RelRect& v : values) {
      const size_t r = static_cast<size_t>(v.relation);
      const size_t i = cursor[r]++;
      if (grid.CellOfRect(v.rect) != cell) continue;
      out.Emit(MarkedRect{v.rect, v.id, v.relation, marked[r][i] != 0});
    }
  });

  const std::vector<RelRect> input = FlattenRelations<RelRect>(relations);
  std::vector<MarkedRect> marked_rects;
  JobStats stats =
      round1.Run(std::span<const RelRect>(input), &marked_rects, ctx);
  // The map splits every input record exactly once.
  round_span.AddArg("split_calls", stats.map_input_records);
  result->stats.Add(std::move(stats));
  return marked_rects;
}

}  // namespace

StatusOr<JoinRunResult> ControlledReplicateJoin(
    const Query& query, const GridPartition& grid,
    const std::vector<std::vector<Rect>>& relations,
    const ControlledReplicateOptions& options, const ExecutionContext& ctx) {
  const int m = query.num_relations();
  if (m > 20) {
    return Status::InvalidArgument(
        "Controlled-Replicate supports at most 20 relations (the marking "
        "search enumerates relation subsets)");
  }

  Tracer* const tracer = ctx.tracer;
  TraceSpan algo_span(tracer, options.limit_replication ? "crepl" : "crep",
                      "algorithm");
  algo_span.AddArg("relations", static_cast<int64_t>(m));
  algo_span.AddArg("cells", static_cast<int64_t>(grid.num_cells()));

  JoinRunResult result;

  // Per-relation replication limits for C-Rep-L: the reach rule over the
  // data's diagonal upper bounds and the join graph (§7.9, §8, footnote
  // 3), rounded outward as the join round's prune rounds it.
  std::vector<double> limit_bounds;
  {
    TraceSpan setup_span(tracer, "crep_setup", "stage");
    if (options.limit_replication) {
      std::vector<double> diagonals(static_cast<size_t>(m), 0.0);
      for (int r = 0; r < m; ++r) {
        for (const Rect& rect : relations[static_cast<size_t>(r)]) {
          diagonals[static_cast<size_t>(r)] =
              std::max(diagonals[static_cast<size_t>(r)], rect.Diagonal());
        }
      }
      limit_bounds = ComputeReplicationBounds(query, diagonals);
      for (double& bound : limit_bounds) bound = ReachLimit(0, bound);
    }
    // Round 1's input size, whether the round runs or is served resident.
    size_t input_records = 0;
    for (const auto& relation : relations) input_records += relation.size();
    setup_span.AddArg("input_records", static_cast<int64_t>(input_records));
  }

  // -------------------------------------------------------------------
  // Round 1: split and mark (RunMarkingRound).
  // -------------------------------------------------------------------
  // Round-1 marking is a resident artifact when a catalog and base key are
  // attached: the marking depends only on (query, grid, datasets) — all
  // pinned by the key — and never on the limit options, so C-Rep and
  // C-Rep-L jobs over the same inputs share one artifact. On a hit the
  // input assembly and the whole split+mark round are skipped.
  const std::string round1_key =
      options.catalog != nullptr && !options.artifact_key.empty()
          ? options.artifact_key + "|crep_round1"
          : std::string();
  std::shared_ptr<const std::vector<MarkedRect>> marked;
  int64_t marked_count = 0;
  {
    TraceSpan round_span(tracer, "crep_round1", "stage");
    StatusOr<DatasetCatalog::Resident<std::vector<MarkedRect>>> round1_out =
        DatasetCatalog::GetOrBuild<std::vector<MarkedRect>>(
            options.catalog, round1_key, [&] {
              return RunMarkingRound(query, grid, relations, ctx, round_span,
                                     &result);
            });
    if (!round1_out.ok()) return round1_out.status();
    // A resident marking makes the round a lookup, not a job.
    if (round1_out.value().cached) round_span.AddArg("cached", int64_t{1});
    if (!round1_key.empty()) {
      result.stats.CountCatalogLookup(round1_out.value().cached);
    }
    marked = std::move(round1_out.value().value);
    for (const MarkedRect& r : *marked) marked_count += r.marked ? 1 : 0;
    round_span.AddArg("marked_records", marked_count);
  }

  // -------------------------------------------------------------------
  // Round 2: replicate marked / project unmarked; join; §6.2 dedup.
  // -------------------------------------------------------------------
  const JoinRound round{
      options.limit_replication ? "crepl_round2_join" : "crep_round2_join",
      "crep_round2", options.limit_replication ? &limit_bounds : nullptr,
      options.limit_metric, options.count_only};
  RunJoinRound(query, grid, round, *marked, marked_count, algo_span, ctx,
               &result);
  return result;
}

// All-Replicate (§6.1) is the join round with every rectangle marked: f1
// ships each one to its whole fourth quadrant. It needs no marking round.
StatusOr<JoinRunResult> AllReplicateJoin(
    const Query& query, const GridPartition& grid,
    const std::vector<std::vector<Rect>>& relations, bool count_only,
    const ExecutionContext& ctx) {
  TraceSpan algo_span(ctx.tracer, "all_replicate", "algorithm");
  algo_span.AddArg("relations", static_cast<int64_t>(query.num_relations()));
  algo_span.AddArg("cells", static_cast<int64_t>(grid.num_cells()));
  std::vector<MarkedRect> input = FlattenRelations<MarkedRect>(relations);
  for (MarkedRect& r : input) r.marked = true;

  JoinRunResult result;
  const JoinRound round{"all_replicate", nullptr, nullptr,
                        DistanceMetric::kChebyshev, count_only};
  RunJoinRound(query, grid, round, input, static_cast<int64_t>(input.size()),
               algo_span, ctx, &result);
  return result;
}

}  // namespace mwsj
