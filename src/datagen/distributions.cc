#include "datagen/distributions.h"

#include <algorithm>
#include <cmath>

namespace mwsj {

double SampleInRange(Rng& rng, Distribution d, double lo, double hi,
                     uint64_t cluster_seed) {
  switch (d) {
    case Distribution::kUniform:
      return rng.Uniform(lo, hi);
    case Distribution::kGaussian: {
      const double mean = (lo + hi) / 2;
      const double sd = (hi - lo) / 6;
      return std::clamp(rng.Gaussian(mean, sd), lo, hi);
    }
    case Distribution::kClustered: {
      // 16 focal points derived deterministically from the cluster seed;
      // 85% of samples fall near a focal point, the rest are uniform.
      if (rng.Bernoulli(0.15)) return rng.Uniform(lo, hi);
      Rng focal_rng(cluster_seed * 1000003ULL + 17);
      const int which = static_cast<int>(rng.UniformInt(0, 15));
      double focus = lo;
      for (int i = 0; i <= which; ++i) focus = focal_rng.Uniform(lo, hi);
      const double sd = (hi - lo) / 40;
      return std::clamp(rng.Gaussian(focus, sd), lo, hi);
    }
  }
  return lo;
}

}  // namespace mwsj
