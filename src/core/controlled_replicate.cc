#include "core/controlled_replicate.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/all_replicate.h"
#include "core/dedup.h"
#include "localjoin/multiway.h"
#include "localjoin/rtree.h"
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

// Evaluates the witness-set search of conditions C1-C3 for one cell.
class MarkingOracle {
 public:
  MarkingOracle(const Query& query, const GridPartition& grid, CellId cell,
                const std::vector<std::vector<LocalRect>>& rects)
      : query_(query),
        grid_(grid),
        cell_(cell),
        cell_rect_(grid.CellRect(cell)),
        rects_(rects) {
    const size_t m = static_cast<size_t>(query.num_relations());
    crossing_.resize(m);
    foreign_dist_.resize(m);
    trees_.resize(m);
    candidate_buffers_.resize(m);
    for (size_t r = 0; r < m; ++r) {
      const auto& list = rects_[r];
      crossing_[r].resize(list.size());
      foreign_dist_[r].resize(list.size());
      std::vector<Rect> geo;
      geo.reserve(list.size());
      for (size_t i = 0; i < list.size(); ++i) {
        // A rectangle contained in the closed cell cannot meet any
        // rectangle that is disjoint from the closed cell, so "crosses the
        // boundary" is implemented as "not contained in the closed cell" —
        // equivalent to the paper's condition for every configuration that
        // can produce output, and never replicating more.
        crossing_[r][i] = !cell_rect_.Contains(list[i].rect);
        foreign_dist_[r][i] =
            ForeignCellDistance(grid_, cell_, cell_rect_, list[i].rect);
        geo.push_back(list[i].rect);
      }
      trees_[r] = std::make_unique<RTree>(geo);
    }
  }

  /// True when some rectangle-set containing rects_[rel][idx] satisfies
  /// C1-C3 at this cell.
  bool IsMarked(int rel, size_t idx) {
    const int m = query_.num_relations();
    const uint32_t full = (1u << m) - 1;
    // Subsets containing `rel`, excluding the full set (C3 would fail: a
    // connected graph leaves no inside/outside condition).
    for (uint32_t subset = 1; subset < full; ++subset) {
      if ((subset & (1u << rel)) == 0) continue;
      if (WitnessInSubset(subset, rel, idx)) return true;
    }
    return false;
  }

 private:
  // Per-subset facts, computed once per cell and shared across every
  // marking decision at that cell: the C2 boundary requirements of each
  // subset relation, and the indices of its C2-eligible rectangles.
  struct SubsetInfo {
    // Indexed by relation; empty vectors for relations outside the subset.
    std::vector<std::vector<const Predicate*>> requirements;
    std::vector<std::vector<int32_t>> eligible;
  };

  const SubsetInfo& GetSubsetInfo(uint32_t subset) {
    auto it = subset_cache_.find(subset);
    if (it != subset_cache_.end()) return it->second;
    SubsetInfo info;
    const size_t m = static_cast<size_t>(query_.num_relations());
    info.requirements.resize(m);
    info.eligible.resize(m);
    for (int r = 0; r < static_cast<int>(m); ++r) {
      if ((subset & (1u << r)) == 0) continue;
      for (int ci : query_.ConditionsOf(r)) {
        const JoinCondition& c = query_.conditions()[static_cast<size_t>(ci)];
        const int other = (c.left == r) ? c.right : c.left;
        if ((subset & (1u << other)) == 0) {
          info.requirements[static_cast<size_t>(r)].push_back(&c.predicate);
        }
      }
      const auto& reqs = info.requirements[static_cast<size_t>(r)];
      auto& elig = info.eligible[static_cast<size_t>(r)];
      for (size_t i = 0; i < rects_[static_cast<size_t>(r)].size(); ++i) {
        if (Eligible(r, i, reqs)) elig.push_back(static_cast<int32_t>(i));
      }
    }
    return subset_cache_.emplace(subset, std::move(info)).first->second;
  }

  // C2 eligibility of rects_[r][i] under the given boundary requirements.
  bool Eligible(int r, size_t i,
                const std::vector<const Predicate*>& requirements) const {
    for (const Predicate* p : requirements) {
      if (p->is_overlap()) {
        if (!crossing_[static_cast<size_t>(r)][i]) return false;
      } else {
        if (!(foreign_dist_[static_cast<size_t>(r)][i] <= p->distance())) {
          return false;
        }
      }
    }
    return true;
  }

  // Induced conditions of `subset` with both endpoints assigned are
  // checked as relations bind. Returns true when a full eligible,
  // consistent assignment over the subset's relations exists with
  // rects_[fixed_rel][fixed_idx] pinned.
  bool WitnessInSubset(uint32_t subset, int fixed_rel, size_t fixed_idx) {
    // Relations of the subset, fixed relation first; remaining relations
    // ordered so each is probed through an induced condition to an
    // already-ordered relation when one exists (disconnected induced
    // components fall back to full scans).
    std::vector<int> members;
    members.push_back(fixed_rel);
    for (int r = 0; r < query_.num_relations(); ++r) {
      if (r != fixed_rel && (subset & (1u << r))) members.push_back(r);
    }
    // Greedy ordering by connectivity.
    for (size_t k = 1; k < members.size(); ++k) {
      size_t pick = k;
      for (size_t j = k; j < members.size(); ++j) {
        bool connected = false;
        for (int ci : query_.ConditionsOf(members[j])) {
          const JoinCondition& c =
              query_.conditions()[static_cast<size_t>(ci)];
          const int other = (c.left == members[j]) ? c.right : c.left;
          if ((subset & (1u << other)) == 0) continue;
          for (size_t t = 0; t < k; ++t) {
            if (members[t] == other) connected = true;
          }
        }
        if (connected) {
          pick = j;
          break;
        }
      }
      std::swap(members[k], members[pick]);
    }

    const SubsetInfo& info = GetSubsetInfo(subset);
    if (!Eligible(fixed_rel, fixed_idx,
                  info.requirements[static_cast<size_t>(fixed_rel)])) {
      return false;
    }

    std::vector<int64_t> assigned(static_cast<size_t>(query_.num_relations()),
                                  -1);
    assigned[static_cast<size_t>(fixed_rel)] =
        static_cast<int64_t>(fixed_idx);
    return Bind(subset, members, info, 1, assigned);
  }

  bool ConsistentWithAssigned(uint32_t subset, int r, size_t i,
                              const std::vector<int64_t>& assigned) const {
    const Rect& rect = rects_[static_cast<size_t>(r)][i].rect;
    for (int ci : query_.ConditionsOf(r)) {
      const JoinCondition& c = query_.conditions()[static_cast<size_t>(ci)];
      const int other = (c.left == r) ? c.right : c.left;
      if ((subset & (1u << other)) == 0) continue;
      const int64_t oi = assigned[static_cast<size_t>(other)];
      if (oi < 0) continue;
      const Rect& other_rect =
          rects_[static_cast<size_t>(other)][static_cast<size_t>(oi)].rect;
      if (!c.predicate.Evaluate(rect, other_rect)) return false;
    }
    return true;
  }

  bool Bind(uint32_t subset, const std::vector<int>& members,
            const SubsetInfo& info, size_t depth,
            std::vector<int64_t>& assigned) {
    if (depth == members.size()) return true;
    const int r = members[depth];

    // Probe through an induced condition to an assigned relation if any.
    const JoinCondition* anchor = nullptr;
    const Rect* anchor_rect = nullptr;
    for (int ci : query_.ConditionsOf(r)) {
      const JoinCondition& c = query_.conditions()[static_cast<size_t>(ci)];
      const int other = (c.left == r) ? c.right : c.left;
      if ((subset & (1u << other)) == 0) continue;
      const int64_t oi = assigned[static_cast<size_t>(other)];
      if (oi < 0) continue;
      anchor = &c;
      anchor_rect =
          &rects_[static_cast<size_t>(other)][static_cast<size_t>(oi)].rect;
      break;
    }

    auto try_index = [&](size_t i) {
      if (!Eligible(r, i, info.requirements[static_cast<size_t>(r)])) {
        return false;
      }
      if (!ConsistentWithAssigned(subset, r, i, assigned)) return false;
      assigned[static_cast<size_t>(r)] = static_cast<int64_t>(i);
      const bool found = Bind(subset, members, info, depth + 1, assigned);
      assigned[static_cast<size_t>(r)] = -1;
      return found;
    };

    if (anchor != nullptr) {
      // Per-depth candidate buffer: the recursion below re-enters Bind, so
      // a single shared list would be clobbered mid-iteration.
      std::vector<int32_t>& candidates = candidate_buffers_[depth];
      candidates.clear();
      const RTree& tree = *trees_[static_cast<size_t>(r)];
      tree.Collect(anchor->predicate, *anchor_rect, &rtree_scratch_,
                   &candidates);
      for (int32_t i : candidates) {
        if (try_index(static_cast<size_t>(i))) return true;
      }
      return false;
    }
    // No assigned neighbor: scan only the subset-eligible rectangles (for
    // induced components disconnected from the fixed relation, the first
    // eligible rectangle typically succeeds immediately).
    for (int32_t i : info.eligible[static_cast<size_t>(r)]) {
      if (try_index(static_cast<size_t>(i))) return true;
    }
    return false;
  }

  const Query& query_;
  const GridPartition& grid_;
  const CellId cell_;
  const Rect cell_rect_;
  const std::vector<std::vector<LocalRect>>& rects_;
  std::vector<std::vector<char>> crossing_;
  std::vector<std::vector<double>> foreign_dist_;
  std::vector<std::unique_ptr<RTree>> trees_;
  std::unordered_map<uint32_t, SubsetInfo> subset_cache_;
  // Probe state reused across every marking decision at this cell. The
  // traversal stack is shared by all depths (a probe completes before the
  // recursion descends); candidate lists are per-depth.
  RTree::QueryScratch rtree_scratch_;
  std::vector<std::vector<int32_t>> candidate_buffers_;
};

}  // namespace

std::vector<std::vector<int64_t>> MarkRectanglesForCell(
    const Query& query, const GridPartition& grid, CellId cell,
    const std::vector<std::vector<LocalRect>>& cell_rects) {
  MarkingOracle oracle(query, grid, cell, cell_rects);
  std::vector<std::vector<int64_t>> marked(cell_rects.size());
  for (size_t r = 0; r < cell_rects.size(); ++r) {
    for (size_t i = 0; i < cell_rects[r].size(); ++i) {
      if (grid.CellOfRect(cell_rects[r][i].rect) != cell) continue;
      if (oracle.IsMarked(static_cast<int>(r), i)) {
        marked[r].push_back(cell_rects[r][i].id);
      }
    }
  }
  return marked;
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

// The join round's reduce body: bucket the cell's records by relation, run
// the multiway local join under the cell's owner window, keep the tuples the
// exact §6.2 OwnsTuple check assigns to `cell`, and append their ids to one
// cell-local TupleBlock, emitted once when non-empty (or only count them).
// The window (GridPartition::QuadrantXLo/QuadrantYHi) prunes
// exactly the tuples whose reference point lies left of or above the cell,
// which no routing can make owned; under the up-left routings of this round
// it leaves only owned tuples, so dedup_tuple_checks equals dedup_owned. The
// leaf check keeps the emitted set independent of the window's
// floating-point edges.
//
// Two paths, picked by the query's shape alone:
//  * count: count_only on a tree-shaped join graph runs
//    MultiwayLocalJoin::Count, the factorized count, which never assembles
//    a tuple. It relies on window ⇔ ownership under the up-left routings,
//    so there "checks" are the tuples whose ownership the window class
//    decided: dedup_tuple_checks == dedup_owned == tuples_counted.
//  * enumerate: every materialized join, and cyclic graphs (kCycle3,
//    cliques) counted or not, run Execute with the OwnsTuple leaf check.
// Both publish local_join_probes, and the `local_join` span names its path.
//
// Dedup tallies live in locals and are published once per call through the
// attempt-scoped counters, so a re-executed attempt never double-counts.
void JoinCell(const Query& query, const GridPartition& grid, bool count_only,
              Tracer* tracer, CellId cell, std::span<const RelRect> values,
              JoinJob::OutEmitter& out) {
  const bool count_path = count_only && query.IsTree();
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
    TupleBlock owned_tuples(m);
    local.Execute(
        [&](const std::vector<const LocalRect*>& members) {
          for (size_t r = 0; r < m; ++r) member_rects[r] = &members[r]->rect;
          ++checks;
          if (!OwnsTuple(grid, cell, member_rects)) return;
          ++owned;
          if (count_only) return;
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

  // Round-1 marking is a resident artifact when a catalog and base key are
  // attached: the marking depends only on (query, grid, datasets) — all
  // pinned by the key — and never on the limit options, so C-Rep and
  // C-Rep-L jobs over the same inputs share one artifact. On a hit the
  // input assembly and the whole split+mark round are skipped.
  const std::string round1_key =
      options.catalog != nullptr && !options.artifact_key.empty()
          ? options.artifact_key + "|crep_round1"
          : std::string();
  std::shared_ptr<const std::vector<MarkedRect>> marked_shared;
  if (!round1_key.empty()) {
    marked_shared = options.catalog->Get<std::vector<MarkedRect>>(round1_key);
    if (marked_shared != nullptr) {
      ++result.stats.catalog_hits;
    } else {
      ++result.stats.catalog_misses;
    }
  }

  // Per-relation replication bounds for C-Rep-L, from the data's diagonal
  // upper bounds and the join graph (§7.9, §8, footnote 3).
  std::vector<double> limit_bounds;
  std::vector<RelRect> input;
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
    }
    if (marked_shared == nullptr) input = FlattenRelations<RelRect>(relations);
    setup_span.AddArg("input_records", static_cast<int64_t>(input.size()));
  }

  // -------------------------------------------------------------------
  // Round 1: split everything; reducers mark the rectangles that start in
  // their cell and must be replicated.
  // -------------------------------------------------------------------
  using Round1 = MapReduceJob<RelRect, CellId, RelRect, MarkedRect>;
  Round1 round1("crep_round1_mark", grid.num_cells());
  round1.set_partition([](const CellId& c) { return static_cast<int>(c); });
  round1.set_map([&grid](const RelRect& r, Round1::Emitter& emit) {
    std::vector<CellId> cells;
    SplitCells(grid, r.rect, &cells);
    for (CellId c : cells) emit.Emit(c, r);
  });
  round1.set_reduce([&grid, &query, m](const CellId& cell,
                                       std::span<const RelRect> values,
                                       Round1::OutEmitter& out) {
    std::vector<std::vector<LocalRect>> per_relation(static_cast<size_t>(m));
    for (const RelRect& v : values) {
      per_relation[static_cast<size_t>(v.relation)].push_back(
          LocalRect{v.rect, v.id});
    }
    const std::vector<std::vector<int64_t>> marked_ids =
        MarkRectanglesForCell(query, grid, cell, per_relation);
    std::vector<std::unordered_set<int64_t>> marked(static_cast<size_t>(m));
    for (size_t r = 0; r < marked_ids.size(); ++r) {
      marked[r].insert(marked_ids[r].begin(), marked_ids[r].end());
    }
    // Emit each rectangle exactly once, from its start cell.
    for (const RelRect& v : values) {
      if (grid.CellOfRect(v.rect) != cell) continue;
      out.Emit(MarkedRect{v.rect, v.id, v.relation,
                          marked[static_cast<size_t>(v.relation)].count(
                              v.id) > 0});
    }
  });

  int64_t marked_count = 0;
  {
    TraceSpan round_span(tracer, "crep_round1", "stage");
    if (marked_shared != nullptr) {
      // Resident marking: the round is a lookup, not a job.
      round_span.AddArg("cached", int64_t{1});
    } else {
      std::vector<MarkedRect> marked_rects;
      JobStats round1_stats =
          round1.Run(std::span<const RelRect>(input), &marked_rects, ctx);
      // The map splits every input record exactly once.
      round_span.AddArg("split_calls", round1_stats.map_input_records);
      result.stats.Add(std::move(round1_stats));
      auto built = std::make_shared<const std::vector<MarkedRect>>(
          std::move(marked_rects));
      // First-wins Put: a concurrent identical job may have stored the
      // artifact already; every consumer then shares the resident copy.
      marked_shared =
          round1_key.empty()
              ? built
              : options.catalog->Put<std::vector<MarkedRect>>(round1_key,
                                                              built);
    }
    for (const MarkedRect& r : *marked_shared) {
      marked_count += r.marked ? 1 : 0;
    }
    round_span.AddArg("marked_records", marked_count);
  }

  // -------------------------------------------------------------------
  // Round 2: replicate marked / project unmarked; join; §6.2 dedup.
  // -------------------------------------------------------------------
  const JoinRound round{
      options.limit_replication ? "crepl_round2_join" : "crep_round2_join",
      "crep_round2", options.limit_replication ? &limit_bounds : nullptr,
      options.limit_metric, options.count_only};
  RunJoinRound(query, grid, round, *marked_shared, marked_count, algo_span,
               ctx, &result);
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
