// Golden fixture: violates hot-shared-rmw through the operator form. The
// kernel increments a std::atomic member with `++`, which compiles to the
// same locked read-modify-write as fetch_add.
#include <atomic>
#include <cstdint>

#include "common/effects.h"

namespace fx {

class Probe {
 public:
  MWSJ_ALLOC_FREE int64_t Visit(int64_t node);

 private:
  std::atomic<int64_t> visits_{0};
};

int64_t Probe::Visit(int64_t node) {
  ++visits_;
  return node * 2;
}

}  // namespace fx
