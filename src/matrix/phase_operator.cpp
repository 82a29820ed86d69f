#include "matrix/phase_operator.hpp"

#include <algorithm>
#include <cmath>
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
void accumulate_bands(std::span<const PhaseBand> row, const double* x,
                      std::size_t k, std::size_t tiled_begin,
                      std::size_t tiled_end, double* ys) {
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

#if defined(CSRL_LANE_PAIRS)
/// Lanes per register tile: eight two-lane accumulators.
constexpr std::size_t kTileLanes = 16;

/// Register tiles over the lanes [begin, end), a whole number of tiles
/// that every band of `row` covers: each tile sums all of the row's bands
/// in registers, in the row's order from +0.0, and stores once.
void accumulate_tiles(std::span<const PhaseBand> row, const double* x,
                      std::size_t k, std::size_t begin, std::size_t end,
                      double* ys) {
  for (std::size_t lane = begin; lane < end; lane += kTileLanes) {
    LanePair s0 = {}, s1 = {}, s2 = {}, s3 = {};
    LanePair s4 = {}, s5 = {}, s6 = {}, s7 = {};
    for (const PhaseBand& band : row) {
      const LanePair c = {band.coef, band.coef};
      const double* xs = x + band.source * k + band.shift + lane;
      s0 += c * load_pair(xs);
      s1 += c * load_pair(xs + 2);
      s2 += c * load_pair(xs + 4);
      s3 += c * load_pair(xs + 6);
      s4 += c * load_pair(xs + 8);
      s5 += c * load_pair(xs + 10);
      s6 += c * load_pair(xs + 12);
      s7 += c * load_pair(xs + 14);
    }
    double* o = ys + lane;
    store_pair(o, s0);
    store_pair(o + 2, s1);
    store_pair(o + 4, s2);
    store_pair(o + 6, s3);
    store_pair(o + 8, s4);
    store_pair(o + 10, s5);
    store_pair(o + 12, s6);
    store_pair(o + 14, s7);
  }
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
                                         double tolerance) const {
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

  // Returns `scan` && no lane of the range moved: the comparisons stop at
  // the first lane with !(|y - x| <= tolerance), which a NaN also fails.
  const auto process_states = [&](std::size_t state_begin,
                                  std::size_t state_end, bool scan) {
    for (std::size_t s = state_begin; s < state_end; ++s) {
      double* ys = y.data() + s * k;
      const std::span<const PhaseBand> row = bands(s);
      const auto [tiled_begin, tiled_end] = tiles_[s];
#if defined(CSRL_LANE_PAIRS)
      accumulate_tiles(row, x.data(), k, tiled_begin, tiled_end, ys);
#endif
      accumulate_bands(row, x.data(), k, tiled_begin, tiled_end, ys);
      const double* xself = x.data() + s * k;
      const double x0 = xself[0];
      for (const FusedAxpy& p : pendings) p.out[s] += p.weight * x0;
      for (std::size_t i = 0; scan && i < k; ++i)
        scan = std::abs(ys[i] - xself[i]) <= tolerance;
    }
    return scan;
  };

  const ThreadPool& pool = ThreadPool::global();
  if (pool.num_threads() == 1 || lane_terms_ < kParallelNnzThreshold)
    return process_states(0, n, tolerance >= 0.0);

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
                           return process_states(tile_start(t),
                                                 tile_start(t + 1), scan);
                         });
}

}  // namespace csrl
