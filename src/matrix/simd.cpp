#include "matrix/simd.hpp"

namespace csrl {

LaneWidth lane_width() {
  static const LaneWidth width = [] {
#if defined(CSRL_LANE_AVX2)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) return LaneWidth::avx2;
#endif
    return LaneWidth::base;
  }();
  return width;
}

bool lane_width_available(LaneWidth width) {
  return width == LaneWidth::base || lane_width() == LaneWidth::avx2;
}

const char* simd_isa() {
#if !defined(CSRL_SIMD_ENABLED)
  return "scalar";
#else
  if (lane_width() == LaneWidth::avx2) return "avx2";
#if defined(__AVX512F__)
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
#endif
}

}  // namespace csrl
