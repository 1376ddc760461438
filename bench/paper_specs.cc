// The paper's Tables 2-9 (§7.8) and four ablations as specs for
// bench/paper_tables. Paper cells are the paper's printed values; the
// at-scale claims restate each table's finding as a ratio over its rows.

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "datagen/california.h"
#include "datagen/synthetic.h"
#include "paper_tables.h"

namespace mwsj::bench {
namespace {

// The metrics the claims compare.
constexpr auto kModeled = &Measured::modeled_seconds;
constexpr auto kReplicated = &Measured::replicated;
constexpr auto kAfter = &Measured::after_replication;
constexpr auto kCopies = &Measured::copies;
constexpr auto kShuffled = &Measured::communication;
constexpr auto kFirstSkew = &Measured::first_job_skew;
constexpr auto kLastSkew = &Measured::last_job_skew;

Variant Algo(Algorithm algorithm) {
  Variant v{AlgorithmName(algorithm), {}};
  v.options.algorithm = algorithm;
  return v;
}

Variant Grid(int side) {
  Variant v = Algo(Algorithm::kControlledReplicate);
  v.name = std::to_string(side) + "x" + std::to_string(side);
  v.options.grid_rows = v.options.grid_cols = side;
  return v;
}

Variant CascadeOrder(std::vector<int> order) {
  Variant v = Algo(Algorithm::kTwoWayCascade);
  v.name.clear();
  for (int r : order) {
    v.name += (v.name.empty() ? "R" : ",R") + std::to_string(r + 1);
  }
  v.options.cascade_order = std::move(order);
  return v;
}

Rect SyntheticSpace(const BenchEnv& env) {
  return Rect(0, 0, env.SpaceLength(100'000), env.SpaceLength(100'000));
}

/// The paper's synthetic relation (§7.8.2 defaults: uniform everything,
/// 100K x 100K space, dims in (0, lmax)), scaled into this run's world.
std::vector<Rect> SyntheticRelation(const BenchEnv& env, double paper_count,
                                    double paper_lmax, uint64_t seed) {
  SyntheticParams params;
  params.num_rectangles = env.Count(paper_count);
  params.x_min = 0;
  params.x_max = env.SpaceLength(100'000);
  params.y_min = 0;
  params.y_max = env.SpaceLength(100'000);
  params.l_min = 0;
  params.l_max = paper_lmax;  // Dimensions keep their paper values.
  params.b_min = 0;
  params.b_max = paper_lmax;
  params.seed = seed;
  return GenerateSynthetic(params).value();
}

/// Three synthetic relations with seeds `seed`, `seed + 1`, `seed + 2`.
World Synthetic(const BenchEnv& env, double paper_count, double paper_lmax,
                uint64_t seed) {
  World world{{}, SyntheticSpace(env)};
  for (uint64_t r = 0; r < 3; ++r) {
    world.relations.push_back(
        SyntheticRelation(env, paper_count, paper_lmax, seed + r));
  }
  return world;
}

/// The paper's 2,092,079 California roads, or their p = 0.5 sample
/// (Tables 7 and 9). Generated once per process: every row crops it.
const std::vector<Rect>& PaperRoads(bool sampled) {
  static const std::vector<Rect> roads = GenerateCaliforniaRoads({});
  if (!sampled) return roads;
  static const std::vector<Rect> sample = SampleDataset(roads, 0.5, 2017);
  return sample;
}

/// Shifts every rectangle the minimum amount needed to lie inside `space`
/// (dimensions preserved, capped at the space extent): §7.8.6
/// enlargement can push border rectangles outside.
std::vector<Rect> ClampInto(const std::vector<Rect>& rects,
                            const Rect& space) {
  std::vector<Rect> out;
  out.reserve(rects.size());
  for (const Rect& r : rects) {
    const double l = std::min(r.length(), space.length());
    const double b = std::min(r.breadth(), space.breadth());
    const double x = std::clamp(r.x(), space.min_x(), space.max_x() - l);
    const double y = std::clamp(r.y(), space.min_y() + b, space.max_y());
    out.push_back(Rect::FromXYLB(x, y, l, b));
  }
  return out;
}

/// The road triples world: the roads inside the window [0, 63K*sqrt(scale)]
/// x [0, 100K*sqrt(scale)], as three roles. Cropping preserves the local
/// clustering and MBB size statistics exactly — contracting positions
/// would compress road corridors and inflate local density. `k` > 0
/// enlarges every MBB by that factor (Table 4).
World Roads(const BenchEnv& env, bool sampled, double k = 0) {
  const Rect full = CaliforniaSpace();
  const double side = std::sqrt(env.scale);
  const Rect window(0, 0, full.max_x() * side, full.max_y() * side);
  std::vector<Rect> cropped;
  for (const Rect& r : PaperRoads(sampled)) {
    if (window.Contains(r)) cropped.push_back(r);
  }
  if (k > 0) cropped = ClampInto(EnlargeDataset(cropped, k), window);
  return {{cropped, cropped, cropped}, window};
}

}  // namespace

std::vector<Spec> PaperSpecs() {
  const Variant cascade = Algo(Algorithm::kTwoWayCascade);
  const Variant all_rep = Algo(Algorithm::kAllReplicate);
  const Variant c_rep = Algo(Algorithm::kControlledReplicate);
  const Variant c_rep_l = Algo(Algorithm::kControlledReplicateInLimit);
  Variant euclidean = c_rep_l;
  euclidean.name = "Euclidean";
  euclidean.options.limit_metric = DistanceMetric::kEuclidean;
  euclidean.may_lose_tuples = true;
  Variant chebyshev = c_rep_l;
  chebyshev.name = "Chebyshev";
  Variant equi_depth = Algo(Algorithm::kControlledReplicate);
  equi_depth.name = "equi-depth";
  equi_depth.options.partitioning = Partitioning::kEquiDepth;
  Variant uniform = Algo(Algorithm::kControlledReplicate);
  uniform.name = "uniform";
  Variant optimizer = Algo(Algorithm::kTwoWayCascade);
  optimizer.name = "optimizer";
  optimizer.options.optimize_cascade_order = true;

  std::vector<Spec> specs;
  specs.push_back(
      {"table2", "Table 2 — Q2, varying the dataset size (nI 1..5 million)",
       "R1 OV R2 AND R2 OV R3", "nI", false,
       [](const BenchEnv& env, double n) {
         return Synthetic(env, n, 100, static_cast<uint64_t>(n / 1000));
       },
       {cascade, all_rep, c_rep, c_rep_l},
       {{1e6, 1,
         {{"00:05"}, {"00:32", "3, (64.3)"}, {"00:05", "0.05, (3.9)"},
          {"00:05", "0.05 (3.0)"}}},
        {2e6, 1,
         {{"00:10"}, {"01:22", "6, (128.7)"}, {"00:07", "0.1, (7.6)"},
          {"00:07", "0.1 (6.1)"}}},
        {3e6, 1,
         {{"00:13"}, {">03:00", "9, (-)", false}, {"00:08", "0.19, (12.5)"},
          {"00:09", "0.19 (9.2)"}}},
        {4e6, 1,
         {{"00:24"}, {">03:00", "12, (-)", false}, {"00:11", "0.23, (15.6)"},
          {"00:11", "0.23 (12.2)"}}},
        {5e6, 1,
         {{"00:35"}, {">03:00", "15, (-)", false}, {"00:15", "0.31 (19.8)"},
          {"00:13", "0.31 (17.9)"}}}},
       {{"C-Rep beats Cascade in modeled time at every nI", kModeled,
         "2-way Cascade", "C-Rep", false, 1},
        {"C-Rep-L beats Cascade in modeled time at every nI", kModeled,
         "2-way Cascade", "C-Rep-L", false, 1},
        {"C-Rep's modeled speedup over Cascade grows with nI (paper 1.0x -> "
         "2.3x)",
         kModeled, "2-way Cascade", "C-Rep", true, 1},
        {"All-Replicate is slower than C-Rep in modeled time", kModeled,
         "All-Replicate", "C-Rep", false, 1},
        {"All-Replicate ships >= 10x C-Rep-L's rectangles after replication "
         "(paper ~21x)",
         kAfter, "All-Replicate", "C-Rep-L", false, 10}}});

  specs.push_back(
      {"table3",
       "Table 3 — Q2, nI = 2 million, varying rectangle dimensions "
       "(l_max = b_max = 100..500)",
       "R1 OV R2 AND R2 OV R3", "l_max", false,
       [](const BenchEnv& env, double lmax) {
         return Synthetic(env, 2e6, lmax, static_cast<uint64_t>(lmax) * 10);
       },
       {cascade, c_rep, c_rep_l},
       {{100, 1,
         {{"00:10"}, {"00:07", "0.11, (7.6)"}, {"00:07", "0.11 (6.1)"}}},
        {200, 1,
         {{"00:13"}, {"00:09", "0.25, (10.1)"}, {"00:08", "0.25 (6.5)"}}},
        {300, 0.25,
         {{"00:30"}, {"00:16", "0.39, (12.0)"}, {"00:13", "0.39 (6.8)"}}},
        {400, 0.1,
         {{"02:23"}, {"00:28", "0.53, (14.5)"}, {"00:20", "0.53 (7.1)"}}},
        {500, 0.05,
         {{"05:14"}, {"00:59", "0.67, (16.8)"}, {"00:33", "0.67 (7.3)"}}}},
       {{"Cascade's modeled time deteriorates sharply with l_max (paper 31x)",
         kModeled, "2-way Cascade", nullptr, true, 10},
        {"C-Rep's modeled time grows mildly (paper 8.4x)", kModeled, "C-Rep",
         nullptr, true, 0, 10},
        {"C-Rep-L's rectangles after replication stay nearly flat (paper "
         "1.2x)",
         kAfter, "C-Rep-L", nullptr, true, 0, 1.25},
        {"the Cascade / C-Rep-L modeled-time gap widens with l_max", kModeled,
         "2-way Cascade", "C-Rep-L", true, 1}}});

  specs.push_back(
      {"table4",
       "Table 4 — Q2s (road triples) on California road data, varying the "
       "enlargement factor k",
       "Road1 OV Road2 AND Road2 OV Road3", "k", true,
       [](const BenchEnv& env, double k) { return Roads(env, false, k); },
       {cascade, c_rep, c_rep_l},
       {{1.00, 1,
         {{"00:19"}, {"00:15", "0.08, (0.8)"}, {"00:14", "0.08 (0.64)"}}},
        {1.25, 1,
         {{"00:27"}, {"00:24", "0.12, (0.9)"}, {"00:21", "0.12 (0.65)"}}},
        {1.50, 1,
         {{"00:43"}, {"00:25", "0.18, (1.0)"}, {"00:24", "0.18 (0.66)"}}},
        {1.75, 1,
         {{"01:04"}, {"00:46", "0.23, (1.14)"}, {"00:42", "0.23 (0.67)"}}},
        {2.00, 1,
         {{"01:35"}, {"00:57", "0.32, (1.33)"}, {"00:53", "0.32 (0.68)"}}}},
       {{"C-Rep beats Cascade in modeled time at every k", kModeled,
         "2-way Cascade", "C-Rep", false, 1},
        {"C-Rep-L's copies stay nearly flat with k (paper 1.06x)", kCopies,
         "C-Rep-L", nullptr, true, 0, 1.25},
        {"C-Rep's copies grow faster than C-Rep-L's (paper 1.57x)", kCopies,
         "C-Rep", "C-Rep-L", true, 1}}});

  specs.push_back(
      {"table5", "Table 5 — Q3 (range, d=100), varying the dataset size",
       "R1 RA(100) R2 AND R2 RA(100) R3", "nI", false,
       [](const BenchEnv& env, double n) {
         return Synthetic(env, n, 100, static_cast<uint64_t>(n / 1000));
       },
       {cascade, c_rep, c_rep_l},
       {{1e6, 1,
         {{"00:11"}, {"00:10", "0.36, (9.1)"}, {"00:06", "0.36 (3.0)"}}},
        {2e6, 0.3,
         {{"00:56"}, {"00:27", "0.61, (16.5)"}, {"00:12", "0.61 (6.1)"}}},
        {3e6, 0.12,
         {{"02:27"}, {"01:12", "0.96, (26.2)"}, {"00:23", "0.96 (9.7)"}}},
        {4e6, 0.06,
         {{"04:23"}, {"01:43", "1.3, (41.6)"}, {"00:39", "1.3 (12.8)"}}},
        {5e6, 0.04,
         {{">06:00"}, {"02:37", "1.7, (58.4)"}, {"01:03", "1.7 (15.8)"}}}},
       {{"C-Rep-L beats C-Rep in modeled time at every nI", kModeled,
         "C-Rep", "C-Rep-L", false, 1},
        {"C-Rep-L beats Cascade in modeled time at every nI", kModeled,
         "2-way Cascade", "C-Rep-L", false, 1},
        {"Cascade spirals out: its modeled-time gap to C-Rep-L widens with "
         "nI",
         kModeled, "2-way Cascade", "C-Rep-L", true, 1},
        {"C-Rep-L ships <= 0.5x C-Rep's rectangles after replication (paper "
         "~0.3x)",
         kAfter, "C-Rep-L", "C-Rep", false, 0, 0.5}}});

  specs.push_back(
      {"table6",
       "Table 6 — Q3, nI = 1 million, varying distance d (100..500)",
       "R1 RA(d) R2 AND R2 RA(d) R3", "d", false,
       [](const BenchEnv& env, double d) {
         return Synthetic(env, 1e6, 100, static_cast<uint64_t>(d) * 7);
       },
       {c_rep, c_rep_l},
       {{100, 1, {{"00:10", "0.36, (9.1)"}, {"00:06", "0.36 (3.0)"}}},
        {200, 0.3, {{"00:18", "0.53, (13.1)"}, {"00:08", "0.53 (3.2)"}}},
        {300, 0.15, {{"00:42", "0.72, (16.5)"}, {"00:15", "0.72 (3.3)"}}},
        {400, 0.08, {{"01:16", "0.94, (20.3)"}, {"00:25", "0.94 (3.4)"}}},
        {500, 0.05, {{"01:40", "1.06, (24.8)"}, {"00:41", "1.06 (3.5)"}}}},
       {{"C-Rep-L beats C-Rep in modeled time at every d", kModeled, "C-Rep",
         "C-Rep-L", false, 1},
        {"C-Rep's rectangles after replication grow steeply with d (paper "
         "2.7x)",
         kAfter, "C-Rep", nullptr, true, 2},
        {"C-Rep-L's rectangles after replication stay nearly flat with d "
         "(paper 1.17x)",
         kAfter, "C-Rep-L", nullptr, true, 0, 1.25}}});

  specs.push_back(
      {"table7",
       "Table 7 — Q3s (range road triples) on sampled California road data "
       "(p=0.5, nI = 1 million), varying d",
       "Road1 RA(d) Road2 AND Road2 RA(d) Road3", "d", true,
       [](const BenchEnv& env, double) { return Roads(env, true); },
       {cascade, c_rep, c_rep_l},
       {{5, 1, {{"01:16"}, {"00:14", "0.04, (4.1)"}, {"00:11", "0.04 (3.1)"}}},
        {10, 1,
         {{"02:02"}, {"00:21", "0.07, (4.9)"}, {"00:16", "0.07 (3.2)"}}},
        {15, 1,
         {{"02:52"}, {"00:36", "0.09, (5.4)"}, {"00:23", "0.09 (3.2)"}}},
        {20, 1,
         {{"04:06"}, {"00:46", "0.10, (5.9)"}, {"00:31", "0.10 (3.3)"}}}},
       {{"Cascade is >= 2x slower than C-Rep in modeled time at every d "
         "(paper ~5x)",
         kModeled, "2-way Cascade", "C-Rep", false, 2},
        {"Cascade's modeled time degrades fastest with d", kModeled,
         "2-way Cascade", "C-Rep", true, 1},
        {"C-Rep-L beats C-Rep in modeled time at every d", kModeled, "C-Rep",
         "C-Rep-L", false, 1},
        {"C-Rep-L's copies stay nearly flat with d (paper 1.06x)", kCopies,
         "C-Rep-L", nullptr, true, 0, 1.25}}});

  specs.push_back(
      {"table8",
       "Table 8 — Q4 (hybrid Ov + Ra(200)), varying the dataset size",
       "R1 OV R2 AND R2 RA(200) R3", "nI", false,
       [](const BenchEnv& env, double n) {
         return Synthetic(env, n, 100, static_cast<uint64_t>(n / 500));
       },
       {c_rep, c_rep_l},
       {{1e6, 1, {{"00:07", "0.27, (8.0)"}, {"00:06", "0.27 (3.1)"}}},
        {2e6, 0.4, {{"00:16", "0.57, (15.8)"}, {"00:12", "0.57 (6.3)"}}},
        {3e6, 0.2, {{"00:39", "0.94, (26.5)"}, {"00:23", "0.94 (9.6)"}}},
        {4e6, 0.1, {{"01:08", "1.22, (33.0)"}, {"00:44", "1.22 (12.7)"}}},
        {5e6, 0.06, {{"01:57", "1.54, (46.3)"}, {"01:16", "1.54 (16.1)"}}}},
       {{"C-Rep-L beats C-Rep in modeled time at every nI", kModeled,
         "C-Rep", "C-Rep-L", false, 1},
        {"the C-Rep / C-Rep-L modeled-time gap widens with nI (paper 1.17x "
         "-> 1.54x)",
         kModeled, "C-Rep", "C-Rep-L", true, 1},
        {"C-Rep-L ships <= 0.5x C-Rep's rectangles after replication (paper "
         "~0.35-0.4x)",
         kAfter, "C-Rep-L", "C-Rep", false, 0, 0.5}}});

  specs.push_back(
      {"table9",
       "Table 9 — Q4s (hybrid road triples) on sampled California road data "
       "(p=0.5, nI = 1 million), varying d",
       "Road1 OV Road2 AND Road2 RA(d) Road3", "d", true,
       [](const BenchEnv& env, double) { return Roads(env, true); },
       {c_rep, c_rep_l},
       {{10, 1, {{"00:28", "0.08, (5.0)"}, {"00:26", "0.08 (3.6)"}}},
        {20, 1, {{"00:39", "0.11, (5.9)"}, {"00:30", "0.11 (3.8)"}}},
        {30, 1, {{"00:51", "0.14, (6.7)"}, {"00:41", "0.14 (3.9)"}}},
        {40, 1, {{"01:03", "0.18, (7.5)"}, {"00:48", "0.18 (4.1)"}}}},
       {{"C-Rep-L beats C-Rep in modeled time at every d", kModeled, "C-Rep",
         "C-Rep-L", false, 1},
        {"C-Rep-L's copies stay nearly flat with d (paper 1.14x)", kCopies,
         "C-Rep-L", nullptr, true, 0, 1.25},
        {"C-Rep's copies grow faster than C-Rep-L's (paper 1.32x)", kCopies,
         "C-Rep", "C-Rep-L", true, 1}}});

  specs.push_back(
      {"grid_size",
       "Ablation — C-Rep vs reducer-grid size (Q2, nI = 2 million)",
       "R1 OV R2 AND R2 OV R3", "nI", false,
       [](const BenchEnv& env, double n) { return Synthetic(env, n, 100, 70); },
       {Grid(2), Grid(4), Grid(8), Grid(12), Grid(16)},
       {{2e6, 1, {}}},
       {{"more cells mark more rectangles for replication", kReplicated,
         "16x16", "2x2", false, 1},
        {"more cells shuffle more records", kShuffled, "16x16", "2x2", false,
         1},
        {"more cells raise the join round's max/avg reducer records",
         kLastSkew, "16x16", "2x2", false, 1}}});

  specs.push_back(
      {"f2_metric",
       "Ablation — C-Rep-L f2 metric: Chebyshev (safe) vs Euclidean "
       "(paper literal), nI = 1 million",
       "R1 RA(d) R2 AND R2 RA(d) R3", "d", true,
       [](const BenchEnv& env, double d) {
         return Synthetic(env, 1e6, 100, static_cast<uint64_t>(d));
       },
       {chebyshev, euclidean},
       {{100, 0.5, {}}, {300, 0.05, {}}, {500, 0.05, {}}},
       {{"Euclidean ships no more replication copies than Chebyshev",
         kCopies, "Euclidean", "Chebyshev", false, 0, 1}}});

  specs.push_back(
      {"partitioning",
       "Ablation — uniform vs equi-depth partitioning on clustered road data "
       "(Q2s, C-Rep)",
       "Road1 OV Road2 AND Road2 OV Road3", "nI", false,
       [](const BenchEnv& env, double) { return Roads(env, false); },
       {uniform, equi_depth},
       {{2'092'079, 1, {}}},
       {{"equi-depth lowers the marking round's max/avg reducer records",
         kFirstSkew, "equi-depth", "uniform", false, 0, 1},
        {"the join round stays skewed under equi-depth (max/avg reducer "
         "records >= 2)",
         kLastSkew, "equi-depth", nullptr, false, 2}}});

  specs.push_back(
      {"cascade_order",
       "Ablation — 2-way Cascade join order (skewed chain: small R1, huge "
       "dense R2/R3)",
       "R1 OV R2 AND R2 OV R3", "nI", false,
       // R1 is small and sparse; R2 and R3 are large with fat rectangles,
       // so starting with R2 x R3 creates a giant intermediate result.
       [](const BenchEnv& env, double n) {
         return World{{SyntheticRelation(env, n / 10, 100, 1),
                       SyntheticRelation(env, n, 300, 2),
                       SyntheticRelation(env, n, 300, 3)},
                      SyntheticSpace(env)};
       },
       {CascadeOrder({0, 1, 2}), CascadeOrder({1, 0, 2}),
        CascadeOrder({1, 2, 0}), CascadeOrder({2, 1, 0}), optimizer},
       {{2e6, 1, {}}},
       {{"starting from R2 x R3 shuffles >= 5x the records", kShuffled,
         "R2,R3,R1", "R1,R2,R3", false, 5},
        {"the sampling optimizer's order shuffles no more records than "
         "R1,R2,R3",
         kShuffled, "optimizer", "R1,R2,R3", false, 0, 1}}});
  return specs;
}

}  // namespace mwsj::bench
