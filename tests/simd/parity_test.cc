// Scalar-vs-SIMD parity: the 100-world randomized property suite runs
// under every available ISA and the *unsorted* emit streams must be
// byte-identical — not just the same result sets. This pins the whole
// dispatch seam: R-tree traversal order, candidate order, and the
// correctness of each filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "localjoin/brute_force.h"
#include "localjoin/multiway.h"
#include "localjoin/rtree.h"
#include "queries/knn_mr.h"
#include "testing/isas.h"
#include "testing/world.h"

namespace mwsj {
namespace {

using testing::AvailableIsas;

// Restores the pre-test dispatch table even when an assertion fails.
class IsaGuard {
 public:
  IsaGuard() : original_(simd::ActiveIsa()) {}
  ~IsaGuard() { simd::SetIsaForTesting(original_); }

 private:
  simd::Isa original_;
};

// The raw emit stream of the multiway local join — deliberately NOT
// sorted, so any ISA-dependent traversal or candidate order shows up.
TupleBlock MultiwayEmitStream(
    const Query& query, const std::vector<std::vector<Rect>>& data) {
  std::vector<std::vector<LocalRect>> local(data.size());
  for (size_t r = 0; r < data.size(); ++r) {
    for (size_t i = 0; i < data[r].size(); ++i) {
      local[r].push_back(LocalRect{data[r][i], static_cast<int64_t>(i)});
    }
  }
  std::vector<std::span<const LocalRect>> spans;
  for (const auto& rel : local) spans.emplace_back(rel.data(), rel.size());
  MultiwayLocalJoin join(query, std::move(spans));
  TupleBlock stream(data.size());
  join.Execute([&stream](const std::vector<const LocalRect*>& members) {
    const std::span<int64_t> row = stream.AppendRow();
    for (size_t r = 0; r < members.size(); ++r) row[r] = members[r]->id;
  });
  return stream;
}

TEST(SimdParityTest, HundredWorldsEmitIdenticalStreamsUnderEveryIsa) {
  using testing::PredicateMix;
  using testing::QueryShape;
  IsaGuard guard;
  const QueryShape shapes[] = {QueryShape::kChain3, QueryShape::kChain4,
                               QueryShape::kStar4, QueryShape::kCycle3};
  const PredicateMix mixes[] = {PredicateMix::kOverlapOnly,
                                PredicateMix::kRangeOnly,
                                PredicateMix::kHybrid};
  const auto isas = AvailableIsas();
  for (int trial = 0; trial < 100; ++trial) {
    testing::WorldConfig config;
    config.shape = shapes[trial % 4];
    config.mix = mixes[trial % 3];
    // Integer worlds maximize boundary ties — the cases where a sloppier
    // vector predicate would diverge first.
    config.integer_coords = (trial % 2 == 1);
    config.seed = static_cast<uint64_t>(trial) * 131 + 7;
    const Query query = testing::MakeWorldQuery(config);
    const auto data = testing::MakeWorldData(config, query.num_relations());

    simd::SetIsaForTesting(simd::Isa::kScalar);
    const TupleBlock reference = MultiwayEmitStream(query, data);

    // Correctness anchor: the scalar stream's sorted content matches the
    // brute-force join.
    TupleBlock sorted = reference;
    SortTuples(&sorted);
    ASSERT_EQ(sorted, BruteForceJoin(query, data)) << "trial=" << trial;

    for (const simd::Isa isa : isas) {
      simd::SetIsaForTesting(isa);
      EXPECT_EQ(MultiwayEmitStream(query, data), reference)
          << "trial=" << trial << " isa=" << simd::IsaName(isa);
    }
  }
}

// The distributed kNN join dispatches through the same seam (its round-2
// reducers drive the R-tree distance kernels), so its full pipeline —
// tuples, per-reducer record streams, intermediate volumes, and user
// counters — must be byte-identical under every ISA.
TEST(SimdParityTest, KnnMrPipelineIsIdenticalUnderEveryIsa) {
  IsaGuard guard;
  const auto isas = AvailableIsas();
  const Query query = MakeChainQuery(2, Predicate::Overlap()).value();
  for (int trial = 0; trial < 20; ++trial) {
    testing::KnnWorldConfig config;
    config.num_points = 50 + (trial % 5) * 20;
    config.num_rects = 100 + (trial % 7) * 30;
    config.with_duplicates = (trial % 3 == 0);
    config.seed = static_cast<uint64_t>(trial) * 131 + 7;
    const auto data = testing::MakeKnnWorldData(config);
    const int k = 1 + trial % 9;

    RunnerOptions options;
    options.grid_rows = 1 + trial % 4;
    options.grid_cols = 1 + (trial / 4) % 4;
    options.space = Rect(0, 0, config.space_size, config.space_size);

    simd::SetIsaForTesting(simd::Isa::kScalar);
    const auto reference = RunKnnJoinMr(query, data, k, options);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_EQ(reference.value().tuples,
              testing::KnnOracleTuples(data[0], data[1], k))
        << "trial=" << trial;

    for (const simd::Isa isa : isas) {
      simd::SetIsaForTesting(isa);
      const auto run = RunKnnJoinMr(query, data, k, options);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run.value().tuples, reference.value().tuples)
          << "trial=" << trial << " isa=" << simd::IsaName(isa);
      ASSERT_EQ(run.value().stats.jobs.size(),
                reference.value().stats.jobs.size());
      for (size_t j = 0; j < run.value().stats.jobs.size(); ++j) {
        const JobStats& a = reference.value().stats.jobs[j];
        const JobStats& b = run.value().stats.jobs[j];
        EXPECT_EQ(a.per_reducer_records, b.per_reducer_records)
            << "trial=" << trial << " isa=" << simd::IsaName(isa) << " job "
            << a.job_name;
        EXPECT_EQ(a.intermediate_records, b.intermediate_records)
            << "trial=" << trial << " isa=" << simd::IsaName(isa) << " job "
            << a.job_name;
        EXPECT_EQ(a.user_counters, b.user_counters)
            << "trial=" << trial << " isa=" << simd::IsaName(isa) << " job "
            << a.job_name;
      }
    }
  }
}

TEST(SimdParityTest, RTreeProbeEmitsIdenticalCandidateStreams) {
  IsaGuard guard;
  const auto isas = AvailableIsas();
  for (int trial = 0; trial < 20; ++trial) {
    testing::WorldConfig config;
    config.shape = testing::QueryShape::kChain3;
    config.mix = (trial % 2 == 0) ? testing::PredicateMix::kOverlapOnly
                                  : testing::PredicateMix::kRangeOnly;
    // Integer coordinates force many tied edges, so a filter that decides
    // a boundary differently on one ISA changes the stream.
    config.integer_coords = true;
    config.seed = static_cast<uint64_t>(trial) * 977 + 3;
    const Query query = testing::MakeWorldQuery(config);
    const auto data = testing::MakeWorldData(config, 2);
    const Predicate& predicate = query.conditions()[0].predicate;

    // Every data[0] rectangle probes a tree over data[1]; the candidate
    // stream is kept in probe and tree order, unsorted.
    const auto run = [&]() {
      const RTree tree(data[1]);
      RTree::QueryScratch scratch;
      std::vector<int32_t> hits;
      std::vector<std::pair<int32_t, int32_t>> pairs;
      for (size_t i = 0; i < data[0].size(); ++i) {
        hits.clear();
        tree.Collect(predicate, data[0][i], &scratch, &hits);
        for (int32_t j : hits) pairs.emplace_back(static_cast<int32_t>(i), j);
      }
      return pairs;
    };

    simd::SetIsaForTesting(simd::Isa::kScalar);
    const auto reference = run();
    std::vector<std::pair<int32_t, int32_t>> want;
    for (size_t i = 0; i < data[0].size(); ++i) {
      for (size_t j = 0; j < data[1].size(); ++j) {
        if (predicate.Evaluate(data[1][j], data[0][i])) {
          want.emplace_back(static_cast<int32_t>(i), static_cast<int32_t>(j));
        }
      }
    }
    auto sorted = reference;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, want) << "trial=" << trial;
    for (const simd::Isa isa : isas) {
      simd::SetIsaForTesting(isa);
      EXPECT_EQ(run(), reference)
          << "trial=" << trial << " isa=" << simd::IsaName(isa);
    }
  }
}

}  // namespace
}  // namespace mwsj
