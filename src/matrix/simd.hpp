// SIMD gear for the lane kernels.
//
// The lane products (matrix/spmm.cpp), the phase-lane kernel
// (matrix/phase_operator.cpp) and Sericola's coefficient sweeps vectorize
// across independent lanes: every lane accumulates its own terms in exactly
// the association order of the one-RHS kernel, and SIMD only ever runs
// *lanes* side by side — never a reduction within one lane's sum.  A
// vector add/multiply of independent lanes performs the identical IEEE
// operations the scalar loop performs, so vectorized and scalar builds
// are bitwise identical by construction (DESIGN.md section 3f).
//
// CSRL_PRAGMA_SIMD expands to `#pragma omp simd` when the build enables
// the CSRL_SIMD option (compiled with -fopenmp-simd: the pragma alone,
// no OpenMP runtime or threading) and to nothing under CSRL_SIMD=OFF —
// the scalar fallback the `simd-off` CI preset keeps honest.  Annotate
// only loops whose iterations are independent per lane.
//
// Under the same option, GCC and Clang also get LanePair (CSRL_LANE_PAIRS
// is defined then): the register-tile accumulators of the lane kernels.
// A tile keeps its lanes' sums in LanePair registers while a row's terms
// stream past and stores them once; each lane still adds its own terms,
// in order, from +0.0.
#pragma once

#include <cstring>

#if defined(CSRL_SIMD_ENABLED)
#define CSRL_PRAGMA_SIMD _Pragma("omp simd")
#else
#define CSRL_PRAGMA_SIMD
#endif

#if defined(CSRL_SIMD_ENABLED) && (defined(__GNUC__) || defined(__clang__))
#define CSRL_LANE_PAIRS 1
#endif

namespace csrl {

#if defined(CSRL_LANE_PAIRS)
/// Two lanes side by side (GCC/Clang vector extension): every multiply
/// and add is each lane's own IEEE operation.
using LanePair = double __attribute__((vector_size(2 * sizeof(double))));

inline LanePair load_pair(const double* p) {
  LanePair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store_pair(double* p, LanePair v) { std::memcpy(p, &v, sizeof v); }
#endif

/// Widest vector instruction set the lane loops compile to, as a stable
/// lowercase token for bench JSON and run reports: "avx512" / "avx2" /
/// "sse2" / "neon", or "scalar" when the build disables CSRL_SIMD (or
/// targets no recognised vector ISA).
inline const char* simd_isa() {
#if !defined(CSRL_SIMD_ENABLED)
  return "scalar";
#elif defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__SSE2__) || defined(__x86_64__)
  return "sse2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

}  // namespace csrl
