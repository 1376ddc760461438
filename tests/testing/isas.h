#ifndef MWSJ_TESTS_TESTING_ISAS_H_
#define MWSJ_TESTS_TESTING_ISAS_H_

#include <vector>

#include "simd/simd.h"

namespace mwsj::testing {

/// Every ISA this build carries and this CPU runs, scalar (the reference)
/// first: the kernel tests sweep each of them.
inline std::vector<simd::Isa> AvailableIsas() {
  std::vector<simd::Isa> isas;
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    if (simd::IsaAvailable(isa)) isas.push_back(isa);
  }
  return isas;
}

}  // namespace mwsj::testing

#endif  // MWSJ_TESTS_TESTING_ISAS_H_
