// Golden fixture: clean under hot-shared-rmw. The kernel tallies its work
// in a caller-owned plain counter and only *reads* the shared atomic; the
// atomic is bumped once per task, by an unannotated publish step that the
// kernel never reaches.
#include <atomic>
#include <cstdint>

#include "common/effects.h"

namespace fx {

std::atomic<int64_t> g_total{0};

MWSJ_ALLOC_FREE bool OwnsCandidate(int64_t cell, int64_t owner,
                                   int64_t* checks) {
  ++*checks;
  int64_t seen = 0;
  seen += g_total.load(std::memory_order_relaxed);
  return cell == owner && seen >= 0;
}

void PublishTask(int64_t checks) {
  g_total.fetch_add(checks, std::memory_order_relaxed);
  g_total += checks;
}

}  // namespace fx
