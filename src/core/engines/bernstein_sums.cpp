#include "core/engines/bernstein_sums.hpp"

#include "util/error.hpp"

namespace csrl {

namespace {

/// Each lane c(h*, n, k) of the tile is read once for its whole group,
/// and every (point, state) sum adds its terms in ascending k.
[[gnu::always_inline]] inline void bernstein_sums(const BernsteinTerms& t,
                                                  std::size_t n,
                                                  const double* coef,
                                                  std::size_t tile,
                                                  std::size_t first,
                                                  std::size_t count) {
  for (std::size_t h = 1; h <= t.m; ++h) {
    if (t.group_begin[h] == t.group_begin[h + 1]) continue;
    for (std::size_t k = 0; k <= n; ++k) {
      const double* c = coef + (k * t.m + (h - 1)) * tile;
      const double* weight = t.weight + k * t.num_points;
      const unsigned char* live = t.live + k * t.num_points;
      for (std::size_t slot = t.group_begin[h]; slot < t.group_begin[h + 1];
           ++slot) {
        if (live[slot] == 0) continue;
        const double w = weight[slot];
        double* acc = t.exceed + slot * t.stride + first;
        CSRL_PRAGMA_SIMD
        for (std::size_t j = 0; j < count; ++j) acc[j] += w * c[j];
      }
    }
  }
}

void bernstein_sums_base(const BernsteinTerms& t, std::size_t n,
                         const double* coef, std::size_t tile,
                         std::size_t first, std::size_t count) {
  bernstein_sums(t, n, coef, tile, first, count);
}

#if defined(CSRL_LANE_AVX2)
CSRL_TARGET_AVX2 void bernstein_sums_avx2(const BernsteinTerms& t,
                                          std::size_t n, const double* coef,
                                          std::size_t tile, std::size_t first,
                                          std::size_t count) {
  bernstein_sums(t, n, coef, tile, first, count);
}
#endif

}  // namespace

void add_bernstein_sums(const BernsteinTerms& terms, std::size_t n,
                        const double* coef, std::size_t tile,
                        std::size_t first, std::size_t count,
                        LaneWidth width) {
  if (!lane_width_available(width))
    throw ModelError("add_bernstein_sums: lane width not available on this "
                     "build or CPU");
#if defined(CSRL_LANE_AVX2)
  if (width == LaneWidth::avx2) {
    bernstein_sums_avx2(terms, n, coef, tile, first, count);
    return;
  }
#endif
  bernstein_sums_base(terms, n, coef, tile, first, count);
}

}  // namespace csrl
