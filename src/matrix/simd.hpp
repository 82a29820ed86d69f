// SIMD gear for the lane kernels.
//
// The lane products (matrix/spmm.cpp), the phase-lane kernel
// (matrix/phase_operator.cpp) and Sericola's coefficient sweeps vectorize
// across independent lanes: every lane accumulates its own terms in exactly
// the association order of the one-RHS kernel, and SIMD only ever runs
// *lanes* side by side — never a reduction within one lane's sum.  A
// vector add/multiply of independent lanes performs the identical IEEE
// operations the scalar loop performs, so vectorized and scalar builds
// are bitwise identical by construction (DESIGN.md section 3f).  The
// library compiles with -ffp-contract=off (src/CMakeLists.txt), so no
// target may fuse a lane's multiply and add into one rounding.
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
//
// Lane widths.  On x86-64 (CSRL_LANE_AVX2) the phase kernel's tiles and
// Sericola's Bernstein sums are compiled twice: a base variant for the
// build's target (LanePair tiles: two lanes per SSE2 register) and an
// AVX2 variant (CSRL_TARGET_AVX2, LaneQuad tiles: four lanes per
// register).  lane_width() picks one per process from the CPU; there is
// no switch.  The AVX2 variant enables `avx2` only, never `fma`, and a
// wider vector only runs more lanes side by side, so both variants give
// the same bits.  The base variant keeps LanePair because a four-lane
// vector compiled for a two-lane target is split into pairs with spills
// between them, several times slower than LanePair itself.
#pragma once

#include <cstring>

#if defined(CSRL_SIMD_ENABLED)
#define CSRL_PRAGMA_SIMD _Pragma("omp simd")
#else
#define CSRL_PRAGMA_SIMD
#endif

#if defined(CSRL_SIMD_ENABLED) && (defined(__GNUC__) || defined(__clang__))
#define CSRL_LANE_PAIRS 1
#if defined(__x86_64__)
#define CSRL_LANE_AVX2 1
#define CSRL_TARGET_AVX2 __attribute__((target("avx2")))
#endif
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

#if defined(CSRL_LANE_AVX2)
/// Four lanes side by side: the AVX2 variant's tile accumulators.  Use
/// it only inside CSRL_TARGET_AVX2 functions (see the file comment), and
/// never as a by-value parameter or return type: a function built for
/// the base target passes it in memory (a different ABI).
using LaneQuad = double __attribute__((vector_size(4 * sizeof(double))));
#endif

/// The variants of the lane-tile routines (see the file comment).
enum class LaneWidth { base, avx2 };

/// Whether this build and this CPU can run `width`: base always, avx2
/// when the build has CSRL_LANE_AVX2 and the CPU reports AVX2.
bool lane_width_available(LaneWidth width);

/// The variant the lane-tile routines run in this process: the widest
/// available one, fixed at the first call.
LaneWidth lane_width();

/// Widest vector instruction set the lane loops run at, as a stable
/// lowercase token for bench JSON and run reports: "avx2" when the lane
/// tiles dispatch to their AVX2 variant, else the build's own target —
/// "avx512" / "avx2" / "sse2" / "neon" — or "scalar" when the build
/// disables CSRL_SIMD (or targets no recognised vector ISA).
const char* simd_isa();

}  // namespace csrl
