// Golden fixture: a query-layer reducer kernel in the knn_mr.cc idiom must
// analyze clean as written — scratch buffers reused across points, a
// generic callback parameter instead of std::function, partial_sort for the
// local top-k, no naked allocation.

#include <algorithm>
#include <cstdint>
#include <vector>

namespace mwsj {

struct KnnCandidate {
  int64_t point_id = 0;
  int64_t rect_id = 0;
  double distance = 0;
};

// (distance, rect id): the total order that makes top-k unique.
inline bool CandidateLess(const KnnCandidate& a, const KnnCandidate& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.rect_id < b.rect_id;
}

// Emits each point's k smallest candidates through a statically dispatched
// callback; `scratch` is caller-owned and reused across invocations.
template <typename Emit>
void EmitLocalTopK(std::vector<KnnCandidate>* scratch, int k, Emit&& emit) {
  std::vector<KnnCandidate>& candidates = *scratch;
  if (static_cast<int>(candidates.size()) > k) {
    std::partial_sort(candidates.begin(), candidates.begin() + k,
                      candidates.end(), CandidateLess);
    candidates.resize(static_cast<size_t>(k));
  } else {
    std::sort(candidates.begin(), candidates.end(), CandidateLess);
  }
  for (const KnnCandidate& c : candidates) emit(c);
}

}  // namespace mwsj
