// Sericola's Bernstein sums over one state tile (sericola_engine.cpp):
// the level-n accumulation of every lattice point's exceedance sum.  The
// loop is compiled in both lane widths of matrix/simd.hpp and runs the
// one lane_width() picks; each (point, state) sum adds its terms in
// ascending k whatever the width, so the variants give the same bits.
#pragma once

#include <cstddef>

#include "matrix/simd.hpp"

namespace csrl {

/// One Sericola call's Bernstein tables at the current jump level.
struct BernsteinTerms {
  std::size_t m = 0;  // reward intervals
  /// m + 2 entries: group h owns the point slots
  /// [group_begin[h], group_begin[h + 1]).
  const std::size_t* group_begin = nullptr;
  std::size_t num_points = 0;
  /// Term k of slot at [k * num_points + slot]: its weight, and whether
  /// the slot's single run adds it (live != 0).
  const double* weight = nullptr;
  const unsigned char* live = nullptr;
  /// The exceedance sums: slot's sum of sweep position pos at
  /// [slot * stride + pos].
  double* exceed = nullptr;
  std::size_t stride = 0;
};

/// Adds level n's terms for the tile of `count` states at sweep positions
/// [first, first + count): for h = 1..m, k = 0..n ascending and every live
/// slot of group h,
///
///   exceed[slot * stride + first + j] +=
///       weight[k * num_points + slot] * coef[(k * m + h - 1) * tile + j]
///
/// for j < count, where `coef` holds the tile's coefficient lanes
/// lane-major with row length `tile`.  `width` names the variant to run
/// (tests compare them); it must be available (lane_width_available),
/// else ModelError.
void add_bernstein_sums(const BernsteinTerms& terms, std::size_t n,
                        const double* coef, std::size_t tile,
                        std::size_t first, std::size_t count,
                        LaneWidth width = lane_width());

}  // namespace csrl
