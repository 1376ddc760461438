// Runtime ISA dispatch: hand out function-pointer tables, and pick the
// active one once (cpuid via __builtin_cpu_supports) in a magic static, so
// steady-state callers of ActiveKernels() pay one pointer read.
#include "simd/simd.h"

#include "simd/kernels_internal.h"

namespace mwsj::simd {

namespace {

const KernelTable kScalarTable = {
    &internal::OverlapFilterScalar,
    &internal::WithinFilterScalar,
    Isa::kScalar,
};

#if MWSJ_HAVE_AVX2
const KernelTable kAvx2Table = {
    &internal::OverlapFilterAvx2,
    &internal::WithinFilterAvx2,
    Isa::kAvx2,
};
#endif

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool IsaAvailable(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if MWSJ_HAVE_AVX2 && defined(__x86_64__) && defined(__GNUC__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

const KernelTable& KernelsFor(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return kScalarTable;
    case Isa::kAvx2:
#if MWSJ_HAVE_AVX2
      return kAvx2Table;
#else
      break;
#endif
  }
  return kScalarTable;  // Unavailable ISA: the safe table.
}

const KernelTable& ActiveKernels() {
  static const KernelTable& active =
      KernelsFor(IsaAvailable(Isa::kAvx2) ? Isa::kAvx2 : Isa::kScalar);
  return active;
}

Isa ActiveIsa() { return ActiveKernels().isa; }

}  // namespace mwsj::simd
