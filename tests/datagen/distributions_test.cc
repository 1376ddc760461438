// Distribution sampler tests.

#include <gtest/gtest.h>

#include "datagen/distributions.h"

namespace mwsj {
namespace {

TEST(DistributionsTest, AllDistributionsRespectBounds) {
  Rng rng(5);
  for (Distribution d : {Distribution::kUniform, Distribution::kGaussian,
                         Distribution::kClustered}) {
    for (int i = 0; i < 5000; ++i) {
      const double v = SampleInRange(rng, d, -10, 10, 3);
      EXPECT_GE(v, -10) << static_cast<int>(d);
      EXPECT_LE(v, 10) << static_cast<int>(d);
    }
  }
}

TEST(DistributionsTest, GaussianConcentratesAroundMidpoint) {
  Rng rng(6);
  int center_hits = 0;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    const double v = SampleInRange(rng, Distribution::kGaussian, 0, 60);
    if (v > 20 && v < 40) ++center_hits;  // Within ~1 stddev of the mean.
    }
  // A uniform would put 33% here; the Gaussian puts ~68%.
  EXPECT_GT(center_hits, kDraws / 2);
}

TEST(DistributionsTest, ClusteredIsMoreConcentratedThanUniform) {
  Rng rng(7);
  constexpr int kDraws = 20000;
  constexpr int kBuckets = 50;
  auto occupancy_variance = [&](Distribution d) {
    std::vector<int> counts(kBuckets, 0);
    for (int i = 0; i < kDraws; ++i) {
      const double v = SampleInRange(rng, d, 0, 1, 123);
      int b = static_cast<int>(v * kBuckets);
      if (b == kBuckets) b = kBuckets - 1;
      ++counts[static_cast<size_t>(b)];
    }
    const double mean = static_cast<double>(kDraws) / kBuckets;
    double var = 0;
    for (int c : counts) var += (c - mean) * (c - mean);
    return var / kBuckets;
  };
  EXPECT_GT(occupancy_variance(Distribution::kClustered),
            5 * occupancy_variance(Distribution::kUniform));
}

}  // namespace
}  // namespace mwsj
