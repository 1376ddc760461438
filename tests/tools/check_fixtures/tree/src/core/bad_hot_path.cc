// Golden fixture: violates exactly hot-path-std-function. Declaring an
// MWSJ_ALLOC_FREE function puts the whole file on the hot path.
#include <functional>

#include "common/effects.h"

namespace mwsj {

MWSJ_ALLOC_FREE void ForEachCandidate(const std::function<void(int)>& visit) {
  for (int i = 0; i < 8; ++i) visit(i);
}

}  // namespace mwsj
