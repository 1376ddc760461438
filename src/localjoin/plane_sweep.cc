#include "localjoin/plane_sweep.h"

#include <algorithm>
#include <cstdint>

#include "simd/simd.h"

namespace mwsj {

namespace {

// Sweep events encoded for the batch key-sort: the sort key is the
// order-preserving u64 image of min_x (with -0.0 canonicalized, so equal
// sweep positions share a key exactly as the double comparator saw them),
// and the payload packs (from_a, index) with the side in the top bit —
// b-side (bit clear) sorts before a-side, then by index, reproducing the
// old comparator's tie-break. Payloads are unique, so the sorted order is
// fully specified.
constexpr uint32_t kFromABit = uint32_t{1} << 31;

}  // namespace

void PlaneSweepJoin(const std::vector<Rect>& a, const std::vector<Rect>& b,
                    const Predicate& predicate,
                    const std::function<void(int32_t, int32_t)>& emit) {
  const double d = predicate.is_range() ? predicate.distance() : 0.0;

  const size_t num_events = a.size() + b.size();
  std::vector<uint64_t> keys;
  std::vector<uint32_t> payloads;
  keys.reserve(num_events);
  payloads.reserve(num_events);
  for (size_t i = 0; i < a.size(); ++i) {
    keys.push_back(simd::OrderedKeyFromDouble(a[i].min_x()));
    payloads.push_back(kFromABit | static_cast<uint32_t>(i));
  }
  for (size_t j = 0; j < b.size(); ++j) {
    keys.push_back(simd::OrderedKeyFromDouble(b[j].min_x()));
    payloads.push_back(static_cast<uint32_t>(j));
  }
  simd::SortKeyIdx(keys.data(), payloads.data(), num_events);

  // Active rectangles from each side, pruned lazily: an active rectangle
  // dies once the sweep line passes max_x + d.
  std::vector<int32_t> active_a;
  std::vector<int32_t> active_b;

  auto prune = [&](std::vector<int32_t>* active, const std::vector<Rect>& src,
                   double line) {
    size_t w = 0;
    for (size_t i = 0; i < active->size(); ++i) {
      if (src[static_cast<size_t>((*active)[i])].max_x() + d >= line) {
        (*active)[w++] = (*active)[i];
      }
    }
    active->resize(w);
  };

  for (size_t e = 0; e < num_events; ++e) {
    const bool from_a = (payloads[e] & kFromABit) != 0;
    const int32_t index = static_cast<int32_t>(payloads[e] & ~kFromABit);
    // The sweep line reads the rectangle's own min_x, not the key: the
    // key canonicalized -0.0, and pruning must compare real coordinates.
    const double line = from_a ? a[static_cast<size_t>(index)].min_x()
                               : b[static_cast<size_t>(index)].min_x();
    prune(&active_a, a, line);
    prune(&active_b, b, line);
    if (from_a) {
      const Rect& ra = a[static_cast<size_t>(index)];
      for (int32_t j : active_b) {
        if (predicate.Evaluate(ra, b[static_cast<size_t>(j)])) {
          emit(index, j);
        }
      }
      active_a.push_back(index);
    } else {
      const Rect& rb = b[static_cast<size_t>(index)];
      for (int32_t i : active_a) {
        if (predicate.Evaluate(a[static_cast<size_t>(i)], rb)) {
          emit(i, index);
        }
      }
      active_b.push_back(index);
    }
  }
}

}  // namespace mwsj
