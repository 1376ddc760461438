// Golden fixture: violates exactly hot-path-std-function. Every file under
// src/simd/ is a hot-path kernel file, annotated or not.
#include <functional>

namespace mwsj::simd {

void ForEachLane(const std::function<void(int)>& visit) {
  for (int lane = 0; lane < 4; ++lane) visit(lane);
}

}  // namespace mwsj::simd
