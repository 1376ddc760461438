// Micro-benchmarks for the geometry kernel: the predicates run once per
// candidate pair in every reducer.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/random.h"
#include "geometry/polygon.h"
#include "geometry/rect.h"
#include "io/colcodec.h"
#include "simd/simd.h"

namespace mwsj {
namespace {

std::vector<Rect> MakeRects(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Rect> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(Rect::FromXYLB(rng.Uniform(0, 900), rng.Uniform(100, 1000),
                                 rng.Uniform(0, 100), rng.Uniform(0, 100)));
  }
  return out;
}

void BM_Overlaps(benchmark::State& state) {
  const auto rects = MakeRects(1024, 1);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Overlaps(rects[i & 1023], rects[(i * 7 + 13) & 1023]));
    ++i;
  }
}
BENCHMARK(BM_Overlaps);

void BM_MinDistance(benchmark::State& state) {
  const auto rects = MakeRects(1024, 2);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MinDistance(rects[i & 1023], rects[(i * 7 + 13) & 1023]));
    ++i;
  }
}
BENCHMARK(BM_MinDistance);

void BM_Intersection(benchmark::State& state) {
  const auto rects = MakeRects(1024, 3);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Intersection(rects[i & 1023], rects[(i * 3 + 5) & 1023]));
    ++i;
  }
}
BENCHMARK(BM_Intersection);

void BM_PolygonIntersects(benchmark::State& state) {
  const int sides = static_cast<int>(state.range(0));
  Rng rng(4);
  std::vector<Polygon> polys;
  for (int i = 0; i < 256; ++i) {
    polys.push_back(Polygon::RegularNGon(
        Point{rng.Uniform(0, 1000), rng.Uniform(0, 1000)},
        rng.Uniform(10, 80), sides, rng.Uniform(0, 1)));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        polys[i & 255].Intersects(polys[(i * 11 + 3) & 255]));
    ++i;
  }
}
BENCHMARK(BM_PolygonIntersects)->Arg(4)->Arg(16)->Arg(64);

void BM_PolygonMinDistance(benchmark::State& state) {
  Rng rng(5);
  std::vector<Polygon> polys;
  for (int i = 0; i < 256; ++i) {
    polys.push_back(Polygon::RegularNGon(
        Point{rng.Uniform(0, 5000), rng.Uniform(0, 5000)},
        rng.Uniform(10, 40), 12, rng.Uniform(0, 1)));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        polys[i & 255].MinDistanceTo(polys[(i * 11 + 3) & 255]));
    ++i;
  }
}
BENCHMARK(BM_PolygonMinDistance);

// --- Batched SIMD filter kernels -------------------------------------------
// One kernel call filters a whole SoA-resident relation against a probe
// rectangle; items_per_second counts rectangles tested. Each ISA variant is
// benchmarked through KernelsFor() so the rows are directly comparable on
// the same machine. n = 16 is the R-tree's default leaf capacity, the batch
// size the join probes actually filter.

simd::SoaRects MakeSoaRects(size_t n, uint64_t seed) {
  Rng rng(seed);
  simd::SoaRects soa;
  soa.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.Uniform(0, 900);
    const double y = rng.Uniform(0, 900);
    soa.PushBack(x, y, x + rng.Uniform(1, 100), y + rng.Uniform(1, 100));
  }
  return soa;
}

void RunOverlapBatch(benchmark::State& state, simd::Isa isa) {
  if (!simd::IsaAvailable(isa)) {
    state.SkipWithError("ISA not available on this machine");
    return;
  }
  const simd::KernelTable& kernels = simd::KernelsFor(isa);
  const size_t n = static_cast<size_t>(state.range(0));
  const simd::SoaRects soa = MakeSoaRects(n, 11);
  std::vector<uint32_t> out(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels.overlap_filter(
        soa.min_x.data(), soa.min_y.data(), soa.max_x.data(),
        soa.max_y.data(), n, 300.0, 300.0, 600.0, 600.0, out.data()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

void RunWithinDistanceBatch(benchmark::State& state, simd::Isa isa) {
  if (!simd::IsaAvailable(isa)) {
    state.SkipWithError("ISA not available on this machine");
    return;
  }
  const simd::KernelTable& kernels = simd::KernelsFor(isa);
  const size_t n = static_cast<size_t>(state.range(0));
  const simd::SoaRects soa = MakeSoaRects(n, 12);
  std::vector<uint32_t> out(n);
  const double d = 40.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels.within_filter(
        soa.min_x.data(), soa.min_y.data(), soa.max_x.data(),
        soa.max_y.data(), n, 300.0, 300.0, 600.0, 600.0, d * d, out.data()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

void BM_OverlapBatch_Scalar(benchmark::State& state) {
  RunOverlapBatch(state, simd::Isa::kScalar);
}
void BM_OverlapBatch_Avx2(benchmark::State& state) {
  RunOverlapBatch(state, simd::Isa::kAvx2);
}
BENCHMARK(BM_OverlapBatch_Scalar)->Arg(16)->Arg(1024)->Arg(65536);
BENCHMARK(BM_OverlapBatch_Avx2)->Arg(16)->Arg(1024)->Arg(65536);

void BM_WithinDistanceBatch_Scalar(benchmark::State& state) {
  RunWithinDistanceBatch(state, simd::Isa::kScalar);
}
void BM_WithinDistanceBatch_Avx2(benchmark::State& state) {
  RunWithinDistanceBatch(state, simd::Isa::kAvx2);
}
BENCHMARK(BM_WithinDistanceBatch_Scalar)->Arg(16)->Arg(1024)->Arg(65536);
BENCHMARK(BM_WithinDistanceBatch_Avx2)->Arg(16)->Arg(1024)->Arg(65536);

// The pre-SIMD engine sort: std::stable_sort of an index array with an
// indirect comparator over the key column. BM_SortKeyIdx_Scalar below is
// its replacement, a packed (key, index) sort.
void BM_SortKeyIdx_StableSortBaseline(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(13);
  std::vector<double> keys(n);
  for (auto& k : keys) k = rng.Uniform(0, 1000);
  std::vector<uint32_t> idx(n);
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) idx[i] = static_cast<uint32_t>(i);
    std::stable_sort(idx.begin(), idx.end(),
                     [&keys](uint32_t a, uint32_t b) {
                       return keys[a] < keys[b];
                     });
    benchmark::DoNotOptimize(idx.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SortKeyIdx_StableSortBaseline)->Arg(65536);

void BM_SortKeyIdx_Scalar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(13);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) {
    k = colcodec::OrderedBitsFromDouble(rng.Uniform(0, 1000));
  }
  std::vector<uint64_t> scratch_keys(n);
  std::vector<uint32_t> idx(n);
  for (auto _ : state) {
    scratch_keys = keys;
    for (size_t i = 0; i < n; ++i) idx[i] = static_cast<uint32_t>(i);
    simd::SortKeyIdx(scratch_keys.data(), idx.data(), n);
    benchmark::DoNotOptimize(idx.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SortKeyIdx_Scalar)->Arg(65536);

}  // namespace
}  // namespace mwsj

BENCHMARK_MAIN();
