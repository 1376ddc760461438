// AVX2 kernel TU: 4 doubles / 4 u64 keys per vector. Compiled with -mavx2
// (set per-source in CMakeLists.txt) only when the compiler supports it;
// dispatch only selects these entry points when the CPU reports avx2, so
// no other TU may call them directly.
#if MWSJ_SIMD_HAVE_AVX2

#define MWSJ_SIMD_WIDTH 4
#define MWSJ_SIMD_FN(name) name##Avx2
#include "simd/kernels_impl.inc"

#endif  // MWSJ_SIMD_HAVE_AVX2
