// Golden fixture: violates hot-shared-rmw. The annotated ownership kernel
// runs once per candidate on every reducer thread; one hop down, a
// statistics helper bumps a process-global atomic, so all threads fight
// over that counter's cache line.
#include <atomic>
#include <cstdint>

#include "common/effects.h"

namespace fx {

std::atomic<int64_t> g_checks{0};

void CountCheck() { g_checks.fetch_add(1, std::memory_order_relaxed); }

MWSJ_ALLOC_FREE bool OwnsCandidate(int64_t cell, int64_t owner) {
  CountCheck();
  return cell == owner;
}

}  // namespace fx
