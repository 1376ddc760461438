// SSE4.2 kernel TU: 2 doubles / 2 u64 keys per vector. Compiled with
// -msse4.2 (set per-source in CMakeLists.txt) only when the compiler
// supports it; dispatch only selects these entry points when the CPU
// reports sse4.2, so no other TU may call them directly.
#if MWSJ_SIMD_HAVE_SSE42

#define MWSJ_SIMD_WIDTH 2
#define MWSJ_SIMD_FN(name) name##Sse
#include "simd/kernels_impl.inc"

#endif  // MWSJ_SIMD_HAVE_SSE42
