#include "matrix/phase_operator.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "matrix/kernel_tuning.hpp"
#include "matrix/simd.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace csrl {

namespace {

using kernel_tuning::kChunksPerThread;
using kernel_tuning::kParallelNnzThreshold;
using kernel_tuning::tiles_converged;

/// The lanes of one state's row outside [tiled_begin, tiled_end), band by
/// band: zero them, then add each band's terms in the row's order.  With
/// no tiles ({0, 0}) this is one pass over the whole row.
[[gnu::always_inline]] inline void accumulate_bands(
    std::span<const PhaseBand> row, const double* x, std::size_t k,
    std::size_t tiled_begin, std::size_t tiled_end, double* ys) {
  if (tiled_begin > 0) {
    std::fill(ys, ys + tiled_begin, 0.0);
    for (const PhaseBand& band : row) {
      const double* xs = x + band.source * k + band.shift;
      const double coef = band.coef;
      const std::size_t below = std::min(band.hi, tiled_begin);
      CSRL_PRAGMA_SIMD
      for (std::size_t i = band.lo; i < below; ++i) ys[i] += coef * xs[i];
    }
  }
  std::fill(ys + tiled_end, ys + k, 0.0);
  for (const PhaseBand& band : row) {
    const double* xs = x + band.source * k + band.shift;
    const double coef = band.coef;
    CSRL_PRAGMA_SIMD
    for (std::size_t i = std::max(band.lo, tiled_end); i < band.hi; ++i)
      ys[i] += coef * xs[i];
  }
}

/// Lanes per register tile: eight LanePair or four LaneQuad accumulators.
constexpr std::size_t kTileLanes = 16;

/// Register tiles over the lanes [begin, end), a whole number of tiles
/// that every band of `row` covers: each tile sums all of the row's bands
/// in registers of lane vector V, in the row's order from +0.0, and
/// stores once.
template <class V>
[[gnu::always_inline]] inline void accumulate_tiles(
    std::span<const PhaseBand> row, const double* x, std::size_t k,
    std::size_t begin, std::size_t end, double* ys) {
  constexpr std::size_t kWidth = sizeof(V) / sizeof(double);
  constexpr std::size_t kSums = kTileLanes / kWidth;
  for (std::size_t lane = begin; lane < end; lane += kTileLanes) {
    V sums[kSums] = {};
    for (const PhaseBand& band : row) {
      const double* xs = x + band.source * k + band.shift + lane;
#pragma GCC unroll 16
      for (std::size_t t = 0; t < kSums; ++t) {
        V xv;
        std::memcpy(&xv, xs + t * kWidth, sizeof xv);
        sums[t] += band.coef * xv;
      }
    }
#pragma GCC unroll 16
    for (std::size_t t = 0; t < kSums; ++t)
      std::memcpy(ys + lane + t * kWidth, &sums[t], sizeof(V));
  }
}

/// One multiply_phase_fused call's operands.
struct PhasePass {
  const std::size_t* row_ptr;
  const PhaseBand* bands;
  const std::pair<std::size_t, std::size_t>* tiles;
  std::size_t k;
  const double* x;
  double* y;
  std::span<const FusedAxpy> pendings;
  double tolerance;
};

/// The per-state pass over states [state_begin, state_end) with tiles of
/// lane vector V: the product, the pendings and the convergence scan.
/// Returns `scan` && no lane of the range moved: the comparisons stop at
/// the first lane with !(|y - x| <= tolerance), which a NaN also fails.
template <class V>
[[gnu::always_inline]] inline bool pass_states(const PhasePass& p,
                                               std::size_t state_begin,
                                               std::size_t state_end,
                                               bool scan) {
  const std::size_t k = p.k;
  for (std::size_t s = state_begin; s < state_end; ++s) {
    double* ys = p.y + s * k;
    const std::span<const PhaseBand> row(p.bands + p.row_ptr[s],
                                         p.row_ptr[s + 1] - p.row_ptr[s]);
    const auto [tiled_begin, tiled_end] = p.tiles[s];
    accumulate_tiles<V>(row, p.x, k, tiled_begin, tiled_end, ys);
    accumulate_bands(row, p.x, k, tiled_begin, tiled_end, ys);
    const double* xself = p.x + s * k;
    const double x0 = xself[0];
    for (const FusedAxpy& pending : p.pendings)
      pending.out[s] += pending.weight * x0;
    for (std::size_t i = 0; scan && i < k; ++i)
      scan = std::abs(ys[i] - xself[i]) <= p.tolerance;
  }
  return scan;
}

// The base variant's tiles are LanePair; under CSRL_SIMD=OFF the
// constructor forms no tiles and the lane type is never used.
#if defined(CSRL_LANE_PAIRS)
using BaseLanes = LanePair;
#else
using BaseLanes = double;
#endif

bool pass_states_base(const PhasePass& p, std::size_t state_begin,
                      std::size_t state_end, bool scan) {
  return pass_states<BaseLanes>(p, state_begin, state_end, scan);
}

#if defined(CSRL_LANE_AVX2)
CSRL_TARGET_AVX2 bool pass_states_avx2(const PhasePass& p,
                                       std::size_t state_begin,
                                       std::size_t state_end, bool scan) {
  return pass_states<LaneQuad>(p, state_begin, state_end, scan);
}
#endif

}  // namespace

PhaseOperator::PhaseOperator(std::size_t phases,
                             std::vector<std::size_t> row_ptr,
                             std::vector<PhaseBand> bands)
    : phases_(phases), row_ptr_(std::move(row_ptr)), bands_(std::move(bands)) {
  if (phases_ == 0) throw ModelError("PhaseOperator: phases must be positive");
  if (row_ptr_.empty() || row_ptr_.front() != 0 ||
      row_ptr_.back() != bands_.size())
    throw ModelError("PhaseOperator: row pointers do not cover the bands");
  const std::size_t n = row_ptr_.size() - 1;
  tiles_.assign(n, {0, 0});
  for (std::size_t s = 0; s < n; ++s) {
    if (row_ptr_[s] > row_ptr_[s + 1])
      throw ModelError("PhaseOperator: row pointers must be non-decreasing");
    std::size_t common_lo = 0;  // the lanes every band of the row covers
    std::size_t common_hi = phases_;
    for (std::size_t b = row_ptr_[s]; b < row_ptr_[s + 1]; ++b) {
      const PhaseBand& band = bands_[b];
      if (band.source >= n || band.lo >= band.hi ||
          band.hi > phases_ || band.shift > phases_ - band.hi ||
          !std::isfinite(band.coef))
        throw ModelError("PhaseOperator: invalid band in row " +
                         std::to_string(s));
      lane_terms_ += band.hi - band.lo;
      common_lo = std::max(common_lo, band.lo);
      common_hi = std::min(common_hi, band.hi);
    }
#if defined(CSRL_LANE_PAIRS)
    if (common_hi >= common_lo + kTileLanes)
      tiles_[s] = {common_lo, common_lo + (common_hi - common_lo) /
                                              kTileLanes * kTileLanes};
#endif
  }
}

bool PhaseOperator::multiply_phase_fused(std::span<const double> x,
                                         std::span<double> y,
                                         std::span<const FusedAxpy> pendings,
                                         double tolerance,
                                         LaneWidth width) const {
  const std::size_t k = phases_;
  if (x.size() != size() || y.size() != size())
    throw ModelError("PhaseOperator::multiply_phase_fused: dimension mismatch");
  const std::size_t n = num_states();
  // One operator application: counted like the CSR product it replaces,
  // so SpMV counts per uniformisation step are the same on either form.
  CSRL_COUNT("spmv/multiply", 1);
  CSRL_COUNT("matrix/spmv/rows_active", size());
  // Cost model (DESIGN.md 3h): each lane term is one multiply-add that
  // gathers x (8 B) and updates its sum in a register or in cache; the
  // band records (40 B) and one write of y (8 B per lane) stream once (a
  // register tile re-reads its state's records from L1).  The epilogues
  // touch the n phase-0 readouts only.
  CSRL_COUNT("cost/phase/flops", 2 * lane_terms_);
  CSRL_COUNT("cost/phase/bytes",
             8 * lane_terms_ + sizeof(PhaseBand) * bands_.size() + 8 * size());
  CSRL_COUNT("cost/epilogue/flops", 2 * n * pendings.size());
  CSRL_COUNT("cost/epilogue/bytes", 16 * n * pendings.size());

  if (!lane_width_available(width))
    throw ModelError("PhaseOperator::multiply_phase_fused: lane width not "
                     "available on this build or CPU");
  const PhasePass pass{row_ptr_.data(), bands_.data(), tiles_.data(), k,
                       x.data(),        y.data(),      pendings,
                       tolerance};
#if defined(CSRL_LANE_AVX2)
  const auto process_states =
      width == LaneWidth::avx2 ? pass_states_avx2 : pass_states_base;
#else
  const auto process_states = pass_states_base;
#endif

  const ThreadPool& pool = ThreadPool::global();
  if (pool.num_threads() == 1 || lane_terms_ < kParallelNnzThreshold)
    return process_states(pass, 0, n, tolerance >= 0.0);

  // States are independent rows: any tiling yields the same bits, and
  // the verdict is the same conjunction.  Tile t starts at the first
  // state past t equal shares of the bands (each band drives up to k
  // lanes).
  const std::size_t target = pool.num_threads() * kChunksPerThread;
  const auto tile_start = [&](std::size_t tile) -> std::size_t {
    if (tile >= target) return n;
    const std::size_t want = bands_.size() * tile / target;
    return static_cast<std::size_t>(
        std::lower_bound(row_ptr_.begin(), row_ptr_.end() - 1, want) -
        row_ptr_.begin());
  };
  return tiles_converged(pool, target, tolerance >= 0.0,
                         [&](std::size_t t, bool scan) {
                           return process_states(pass, tile_start(t),
                                                 tile_start(t + 1), scan);
                         });
}

}  // namespace csrl
