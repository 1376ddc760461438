#include "core/controlled_replicate.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/trace.h"
#include "core/cell_join.h"
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

    if (marked_shared == nullptr) {
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
    }
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

  {
    TraceSpan round_span(tracer, "crep_round1", "stage");
    if (marked_shared != nullptr) {
      // Resident marking: the round is a lookup, not a job.
      round_span.AddArg("cached", int64_t{1});
      int64_t marked_count = 0;
      for (const MarkedRect& r : *marked_shared) {
        marked_count += r.marked ? 1 : 0;
      }
      round_span.AddArg("marked_records", marked_count);
    } else {
      std::vector<MarkedRect> marked_rects;
      JobStats round1_stats =
          round1.Run(std::span<const RelRect>(input), &marked_rects, ctx);
      // The map splits every input record exactly once.
      round_span.AddArg("split_calls", round1_stats.map_input_records);
      result.stats.Add(std::move(round1_stats));
      int64_t marked_count = 0;
      for (const MarkedRect& r : marked_rects) {
        marked_count += r.marked ? 1 : 0;
      }
      round_span.AddArg("marked_records", marked_count);
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
  }

  // -------------------------------------------------------------------
  // Round 2: replicate marked / project unmarked; join; §6.2 dedup.
  // -------------------------------------------------------------------
  using Round2 = MapReduceJob<MarkedRect, CellId, RelRect, IdTuple>;
  Round2 round2(options.limit_replication ? "crepl_round2_join"
                                          : "crep_round2_join",
                grid.num_cells());
  round2.set_partition([](const CellId& c) { return static_cast<int>(c); });

  const bool limit = options.limit_replication;
  const DistanceMetric metric = options.limit_metric;
  // Replication tallies go through the emitter's attempt-local counters,
  // not captured atomics: a re-executed map attempt under fault injection
  // would double-count an atomic, while discarded-attempt emitter deltas
  // are dropped with the attempt.
  round2.set_map([&grid, &limit_bounds, limit, metric](
                     const MarkedRect& r, Round2::Emitter& emit) {
    const RelRect payload{r.rect, r.id, r.relation};
    if (!r.marked) {
      emit.Emit(ProjectCell(grid, r.rect), payload);
      return;
    }
    std::vector<CellId> cells;
    if (limit) {
      ReplicateF2Cells(grid, r.rect,
                       limit_bounds[static_cast<size_t>(r.relation)], metric,
                       &cells);
    } else {
      ReplicateF1Cells(grid, r.rect, &cells);
    }
    emit.IncrementCounter(kCounterRectanglesReplicated, 1);
    emit.IncrementCounter(kCounterReplicationCopies,
                          static_cast<int64_t>(cells.size()));
    for (CellId c : cells) emit.Emit(c, payload);
  });

  const bool count_only = options.count_only;
  round2.set_reduce(CellJoinReduce<Round2>(query, grid, count_only, tracer));

  TraceSpan round2_span(tracer, "crep_round2", "stage");
  JobStats round2_stats = round2.Run(
      std::span<const MarkedRect>(*marked_shared), &result.tuples, ctx);
  // Counters no task added (no marked rectangle, no reduce input) are
  // explicit zeros, for stable stats output.
  auto& counters = round2_stats.user_counters;
  for (const char* name :
       {kCounterRectanglesReplicated, kCounterReplicationCopies,
        kCounterDedupTupleChecks, kCounterDedupOwned}) {
    counters.try_emplace(name, 0);
  }
  // Each marked record is replicated once (f1, or f2 under the limit) and
  // each unmarked one projected once.
  const int64_t replicated = counters.at(kCounterRectanglesReplicated);
  round2_span.AddArg("project_calls",
                     round2_stats.map_input_records - replicated);
  round2_span.AddArg("replicate_f1_calls", limit ? 0 : replicated);
  round2_span.AddArg("replicate_f2_calls", limit ? replicated : 0);
  round2_span.AddArg("dedup_tuple_checks",
                     counters.at(kCounterDedupTupleChecks));
  round2_span.AddArg("dedup_owned", counters.at(kCounterDedupOwned));
  round2_span.End();
  // The paper's "number of rectangles after replication" (§7.8.3) counts
  // rectangles received by the join round's reducers — the round-2
  // intermediate records: one copy per projected rectangle plus every
  // replicated copy (this is what makes Table 2's C-Rep column ~= nI plus
  // a small replication overhead).
  round2_stats.user_counters[kCounterRectanglesAfterReplication] =
      round2_stats.intermediate_records;
  result.num_tuples = count_only
                          ? round2_stats.user_counters[kCounterTuplesCounted]
                          : static_cast<int64_t>(result.tuples.size());
  if (count_only) {
    // Keep the cost model honest: counted tuples would still have been
    // written by a real job.
    round2_stats.reduce_output_records = result.num_tuples;
  }
  // The engine charged sizeof(IdTuple) per emitted tuple; a tuple is m ids
  // plus a length word in either mode.
  round2_stats.reduce_output_bytes =
      round2_stats.reduce_output_records * (8 * (m + 1));
  result.stats.Add(std::move(round2_stats));

  {
    TraceSpan sort_span(tracer, "sort_tuples", "stage");
    sort_span.AddArg("tuples", static_cast<int64_t>(result.tuples.size()));
    SortTuples(&result.tuples);
  }
  algo_span.AddArg("output_tuples", result.num_tuples);
  return result;
}

}  // namespace mwsj
