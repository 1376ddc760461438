// Golden fixture: every violation carries a justified allow(), so the
// analyzer must exit 0. Exercises same-line and previous-line placement and
// the comma-separated form. The MWSJ_ALLOC_FREE function puts the file in
// hot-path-std-function's scope.
#include <functional>
#include <iostream>
#include <random>

#include "common/effects.h"

namespace mwsj {

// mwsj-check: allow(rng-outside-common): fixture generator, never a dataset
std::mt19937 g_generator(7);

void Log(int v) {
  std::cout << v << "\n";  // mwsj-check: allow(stdout-in-library): fixture
}

// mwsj-check: allow(hot-path-std-function, stdout-in-library): the
// callback is invoked once per call, never per candidate.
MWSJ_ALLOC_FREE void Visit(const std::function<void(int)>& fn) { fn(0); }

}  // namespace mwsj
