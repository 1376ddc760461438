#ifndef MWSJ_DATAGEN_DISTRIBUTIONS_H_
#define MWSJ_DATAGEN_DISTRIBUTIONS_H_

#include <string>

#include "common/random.h"

namespace mwsj {

/// Value distributions selectable for each synthetic-data parameter
/// (the paper's dX, dY, dL, dB knobs, §7.8.2).
enum class Distribution {
  kUniform,
  /// Truncated Gaussian centered on the range midpoint (stddev = range/6).
  kGaussian,
  /// Clustered: values concentrate around a few random focal points,
  /// approximating real-world spatial skew.
  kClustered,
};

/// Samples a value in [lo, hi] under `d`. For kClustered the caller supplies
/// a stable `cluster_seed` so that repeated samples share focal points.
double SampleInRange(Rng& rng, Distribution d, double lo, double hi,
                     uint64_t cluster_seed = 0);

}  // namespace mwsj

#endif  // MWSJ_DATAGEN_DISTRIBUTIONS_H_
