// Golden fixture: a hot-shared-rmw hit silenced by a justified
// `mwsj-check: allow(...)` comment — e.g. a once-per-process latch that
// only the first call ever contends on.
#include <atomic>

#include "common/effects.h"

namespace fx {

std::atomic<bool> g_warned{false};

MWSJ_ALLOC_FREE bool CheckOnce(bool bad) {
  if (bad && !g_warned.load(std::memory_order_relaxed)) {
    // mwsj-check: allow(hot-shared-rmw): reached at most once per
    // process; the latch is never written again after the first bad input.
    return !g_warned.exchange(true);
  }
  return false;
}

}  // namespace fx
