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
  for (std::size_t s = 0; s < n; ++s) {
    if (row_ptr_[s] > row_ptr_[s + 1])
      throw ModelError("PhaseOperator: row pointers must be non-decreasing");
    for (std::size_t b = row_ptr_[s]; b < row_ptr_[s + 1]; ++b) {
      const PhaseBand& band = bands_[b];
      if (band.source >= n || band.lo >= band.hi ||
          band.hi + band.shift > phases_ || !std::isfinite(band.coef))
        throw ModelError("PhaseOperator: invalid band in row " +
                         std::to_string(s));
      lane_terms_ += band.hi - band.lo;
    }
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
  // gathers x (8 B) and updates y in cache; the band records (40 B) and
  // one write of y (8 B per lane) stream once.  The epilogues touch the
  // n phase-0 readouts only.
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
      std::fill(ys, ys + k, 0.0);
      for (const PhaseBand& band : bands(s)) {
        const double* xs = x.data() + band.source * k + band.shift;
        const double coef = band.coef;
        CSRL_PRAGMA_SIMD
        for (std::size_t i = band.lo; i < band.hi; ++i) ys[i] += coef * xs[i];
      }
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
