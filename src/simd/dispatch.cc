// Runtime ISA dispatch: detect once (cpuid via __builtin_cpu_supports),
// honor the MWSJ_SIMD override, and hand out function-pointer tables. The
// detection result is cached in a magic static, so steady-state callers of
// ActiveKernels() pay one atomic load (the testing override) plus a
// pointer read.
#include "simd/simd.h"

#include <atomic>
#include <cstdlib>

#include "simd/kernels_internal.h"

namespace mwsj::simd {

namespace {

const KernelTable kScalarTable = {
    &internal::OverlapFilterScalar,
    &internal::WithinFilterScalar,
    Isa::kScalar,
};

#if MWSJ_SIMD_HAVE_AVX2
const KernelTable kAvx2Table = {
    &internal::OverlapFilterAvx2,
    &internal::WithinFilterAvx2,
    Isa::kAvx2,
};
#endif

Isa DetectIsa() {
  const char* env = std::getenv("MWSJ_SIMD");
  // Set-but-empty counts as unset: `MWSJ_SIMD= ./binary` and exporting an
  // empty matrix variable from CI both mean "no override".
  if (env != nullptr && env[0] != '\0') {
    if (const std::optional<Isa> requested = ParseIsa(env)) {
      if (IsaAvailable(*requested)) return *requested;
    }
    // An explicit override that cannot be honored pins scalar: a test or
    // CI leg naming an ISA must never silently run a different vector one.
    return Isa::kScalar;
  }
  return IsaAvailable(Isa::kAvx2) ? Isa::kAvx2 : Isa::kScalar;
}

// Testing override; nullptr means "use the detected table". Relaxed atomics
// suffice — tests set it before launching joins, never during.
std::atomic<const KernelTable*> g_override{nullptr};

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

std::optional<Isa> ParseIsa(std::string_view name) {
  if (name == "scalar") return Isa::kScalar;
  if (name == "avx2") return Isa::kAvx2;
  return std::nullopt;
}

bool IsaAvailable(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if MWSJ_SIMD_HAVE_AVX2 && defined(__x86_64__) && defined(__GNUC__)
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
#if MWSJ_SIMD_HAVE_AVX2
      return kAvx2Table;
#else
      break;
#endif
  }
  return kScalarTable;  // Unavailable ISA: the safe table.
}

const KernelTable& ActiveKernels() {
  static const KernelTable* const detected = &KernelsFor(DetectIsa());
  const KernelTable* overridden = g_override.load(std::memory_order_relaxed);
  return overridden != nullptr ? *overridden : *detected;
}

Isa ActiveIsa() { return ActiveKernels().isa; }

void SetIsaForTesting(Isa isa) {
  g_override.store(&KernelsFor(isa), std::memory_order_relaxed);
}

}  // namespace mwsj::simd
