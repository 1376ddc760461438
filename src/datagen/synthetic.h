#ifndef MWSJ_DATAGEN_SYNTHETIC_H_
#define MWSJ_DATAGEN_SYNTHETIC_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "datagen/distributions.h"
#include "geometry/rect.h"

namespace mwsj {

/// Parameters of the paper's synthetic rectangle generator (§7.8.2):
/// (a) number of rectangles nI, (b) distribution of start-point x and y
/// (dX, dY), (c) distribution of length and breadth (dL, dB), (d) the
/// coordinate ranges, (e) length/breadth ranges. Every rectangle lies
/// entirely within the coordinate space. The defaults are the paper's
/// Table 2/3/5/6/8 setup: everything Uniform over a 100K x 100K space,
/// dimensions in (0, 100).
struct SyntheticParams {
  int64_t num_rectangles = 0;  // nI
  Distribution dist_x = Distribution::kUniform;
  Distribution dist_y = Distribution::kUniform;
  Distribution dist_l = Distribution::kUniform;
  Distribution dist_b = Distribution::kUniform;
  double x_min = 0, x_max = 100'000;  // (x_min, x_max)
  double y_min = 0, y_max = 100'000;  // (y_min, y_max)
  double l_min = 0, l_max = 100;      // (l_min, l_max)
  double b_min = 0, b_max = 100;      // (b_min, b_max)
  uint64_t seed = 1;

  Status Validate() const;
};

/// Generates the dataset. Dimensions are sampled first; start points are
/// then sampled so the whole rectangle stays inside the space.
StatusOr<std::vector<Rect>> GenerateSynthetic(const SyntheticParams& params);

/// Uniformly samples each rectangle with probability `p` (the paper's
/// "sampled with probability 0.5" California experiments, §8.1).
std::vector<Rect> SampleDataset(const std::vector<Rect>& data, double p,
                                uint64_t seed);

/// Enlarges every rectangle by factor `k` about its center (§7.8.6).
std::vector<Rect> EnlargeDataset(const std::vector<Rect>& data, double k);

/// Largest diagonal in the dataset — the d_max bound consumed by C-Rep-L.
double MaxDiagonal(const std::vector<Rect>& data);

}  // namespace mwsj

#endif  // MWSJ_DATAGEN_SYNTHETIC_H_
