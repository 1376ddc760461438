// Micro-benchmark for the C-Rep round-1 marking decision (conditions
// C1-C3), the novel per-reducer computation the framework introduces: one
// multiway local join per connected proper relation subset over its
// members' C2-eligible rectangles (MarkRectanglesForCell). The benchmark
// names keep their historical "Oracle" prefix so results stay comparable.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "core/controlled_replicate.h"
#include "query/query.h"

namespace mwsj {
namespace {

// A reducer's view: rectangles of `m` relations split onto one cell of an
// 8x8 grid, sized so that roughly `crossing_fraction` cross the boundary.
struct CellWorld {
  GridPartition grid;
  CellId cell;
  std::vector<std::vector<LocalRect>> rects;
};

CellWorld MakeCellWorld(int per_relation, int num_relations, uint64_t seed) {
  const Rect space(0, 0, 8000, 8000);
  CellWorld world{GridPartition::Create(space, 8, 8).value(), 0, {}};
  world.cell = world.grid.CellIdOf(3, 3);  // An interior cell.
  const Rect cell_rect = world.grid.CellRect(world.cell);
  Rng rng(seed);
  world.rects.resize(static_cast<size_t>(num_relations));
  for (auto& relation : world.rects) {
    for (int i = 0; i < per_relation; ++i) {
      const double l = rng.Uniform(1, 80);
      const double b = rng.Uniform(1, 80);
      // Start inside (or slightly left/above) the cell so that a share of
      // rectangles cross its boundary.
      const double x = rng.Uniform(cell_rect.min_x() - 40, cell_rect.max_x());
      const double y = rng.Uniform(cell_rect.min_y(), cell_rect.max_y() + 40);
      relation.push_back(
          LocalRect{Rect::FromXYLB(x, y, l, b), static_cast<int64_t>(i)});
    }
  }
  return world;
}

void BM_MarkingOracleChain(benchmark::State& state) {
  const Query query = MakeChainQuery(3, Predicate::Overlap()).value();
  const CellWorld world =
      MakeCellWorld(static_cast<int>(state.range(0)), 3, 99);
  for (auto _ : state) {
    auto marked =
        MarkRectanglesForCell(query, world.grid, world.cell, world.rects);
    benchmark::DoNotOptimize(marked.data());
  }
  state.SetItemsProcessed(state.iterations() * 3 * state.range(0));
}
BENCHMARK(BM_MarkingOracleChain)->Arg(100)->Arg(1000)->Arg(5000);

void BM_MarkingOracleRangeChain(benchmark::State& state) {
  const Query query = MakeChainQuery(3, Predicate::Range(50)).value();
  const CellWorld world =
      MakeCellWorld(static_cast<int>(state.range(0)), 3, 7);
  for (auto _ : state) {
    auto marked =
        MarkRectanglesForCell(query, world.grid, world.cell, world.rects);
    benchmark::DoNotOptimize(marked.data());
  }
  state.SetItemsProcessed(state.iterations() * 3 * state.range(0));
}
BENCHMARK(BM_MarkingOracleRangeChain)->Arg(100)->Arg(1000);

void BM_MarkingOracleChain4(benchmark::State& state) {
  const Query query = MakeChainQuery(4, Predicate::Overlap()).value();
  const CellWorld world =
      MakeCellWorld(static_cast<int>(state.range(0)), 4, 13);
  for (auto _ : state) {
    auto marked =
        MarkRectanglesForCell(query, world.grid, world.cell, world.rects);
    benchmark::DoNotOptimize(marked.data());
  }
  state.SetItemsProcessed(state.iterations() * 4 * state.range(0));
}
BENCHMARK(BM_MarkingOracleChain4)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace mwsj

BENCHMARK_MAIN();
