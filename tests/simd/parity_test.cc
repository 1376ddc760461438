// Scalar-vs-SIMD parity without an in-process switch: each suite pins a
// committed 64-bit digest of its *unsorted* streams — not just the result
// sets. A build runs one ISA (the best the build and the CPU carry), and
// the constants below are the same in the default build and in a
// scalar-only one (cmake -DMWSJ_COMPILER_HAS_AVX2=OFF, CI's `scalar` leg),
// so matching them pins the whole dispatch seam: R-tree traversal order,
// candidate order, and the correctness of each filter. Each suite also
// checks its streams against an ISA-free reference first.
//
// A digest mismatch with the correctness anchors passing means the stream
// order or the pipeline changed. If that change is intended (a new
// traversal order, a new world generator), re-commit the printed digest
// after checking that both builds print the same one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "localjoin/brute_force.h"
#include "localjoin/multiway.h"
#include "localjoin/rtree.h"
#include "queries/knn_mr.h"
#include "simd/simd.h"
#include "testing/world.h"

namespace mwsj {
namespace {

// FNV-1a over the bytes of 64-bit words, little-endian by construction, so
// the digest does not depend on the host's byte order.
class StreamDigest {
 public:
  void Add(uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (word >> (8 * b)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Add(std::string_view text) {
    Add(text.size());
    for (const char c : text) Add(static_cast<unsigned char>(c));
  }
  void Add(const TupleBlock& block) {
    Add(block.size());
    for (const IdTuple row : block) {
      for (const int64_t id : row) Add(static_cast<uint64_t>(id));
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
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
  const QueryShape shapes[] = {QueryShape::kChain3, QueryShape::kChain4,
                               QueryShape::kStar4, QueryShape::kCycle3};
  const PredicateMix mixes[] = {PredicateMix::kOverlapOnly,
                                PredicateMix::kRangeOnly,
                                PredicateMix::kHybrid};
  StreamDigest digest;
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

    const TupleBlock stream = MultiwayEmitStream(query, data);
    // Correctness anchor: the stream's sorted content matches the
    // brute-force join, which runs no batch kernel.
    TupleBlock sorted = stream;
    SortTuples(&sorted);
    ASSERT_EQ(sorted, BruteForceJoin(query, data)) << "trial=" << trial;
    digest.Add(stream);
  }
  EXPECT_EQ(digest.value(), 0x6bc23364cf8af0b8ull)
      << std::hex << "digest 0x" << digest.value() << " under "
      << simd::IsaName(simd::ActiveIsa());
}

// The distributed kNN join dispatches through the same seam (its round-2
// reducers drive the R-tree distance kernels), so its full pipeline —
// tuples, per-reducer record streams, intermediate volumes, and user
// counters — must digest the same under every ISA.
TEST(SimdParityTest, KnnMrPipelineIsIdenticalUnderEveryIsa) {
  const Query query = MakeChainQuery(2, Predicate::Overlap()).value();
  StreamDigest digest;
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

    const auto run = RunKnnJoinMr(query, data, k, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(run.value().tuples,
              testing::KnnOracleTuples(data[0], data[1], k))
        << "trial=" << trial;
    digest.Add(run.value().tuples);
    for (const JobStats& job : run.value().stats.jobs) {
      digest.Add(job.job_name);
      digest.Add(job.per_reducer_records.size());
      for (const int64_t records : job.per_reducer_records) {
        digest.Add(static_cast<uint64_t>(records));
      }
      digest.Add(static_cast<uint64_t>(job.intermediate_records));
      for (const auto& [name, value] : job.user_counters) {
        digest.Add(name);
        digest.Add(static_cast<uint64_t>(value));
      }
    }
  }
  EXPECT_EQ(digest.value(), 0x6612b2f4157b17b8ull)
      << std::hex << "digest 0x" << digest.value() << " under "
      << simd::IsaName(simd::ActiveIsa());
}

TEST(SimdParityTest, RTreeProbeEmitsIdenticalCandidateStreams) {
  StreamDigest digest;
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
    const RTree tree(data[1]);
    RTree::QueryScratch scratch;
    std::vector<int32_t> hits;
    std::vector<std::pair<int32_t, int32_t>> pairs;
    for (size_t i = 0; i < data[0].size(); ++i) {
      hits.clear();
      tree.Collect(predicate, data[0][i], &scratch, &hits);
      for (int32_t j : hits) pairs.emplace_back(static_cast<int32_t>(i), j);
    }

    // Correctness anchor: a nested loop over Predicate::Evaluate.
    std::vector<std::pair<int32_t, int32_t>> want;
    for (size_t i = 0; i < data[0].size(); ++i) {
      for (size_t j = 0; j < data[1].size(); ++j) {
        if (predicate.Evaluate(data[1][j], data[0][i])) {
          want.emplace_back(static_cast<int32_t>(i), static_cast<int32_t>(j));
        }
      }
    }
    auto sorted = pairs;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(sorted, want) << "trial=" << trial;
    digest.Add(pairs.size());
    for (const auto& [i, j] : pairs) {
      digest.Add(static_cast<uint64_t>(i));
      digest.Add(static_cast<uint64_t>(j));
    }
  }
  EXPECT_EQ(digest.value(), 0x0ca761979e270c89ull)
      << std::hex << "digest 0x" << digest.value() << " under "
      << simd::IsaName(simd::ActiveIsa());
}

}  // namespace
}  // namespace mwsj
