// Blocked multi-RHS SpMM kernel for CsrMatrix (declared in
// matrix/csr.hpp; see matrix/spmm.hpp for the surrounding plumbing).
//
// Layout and identity argument (DESIGN.md section 3f): a block is
// row-major interleaved — X[i * stride + b] is element i of lane b — so
// one stored entry (r, c, v) touches the contiguous lane group at
// X + c * stride and updates the group at Y + r * stride.  The matrix is
// streamed ONCE for all `width` lanes; that single streaming is the
// entire win, because the sweeps this kernel serves are bound by matrix
// memory traffic, not flops.  Within a row, lane b accumulates
// v_1 * x_b[c_1] + v_2 * x_b[c_2] + ... in exactly the entry order of
// the one-RHS kernel, starting from 0.0, so each result lane is bitwise
// identical to a separate multiply() on that lane.  SIMD only ever runs
// the independent lanes side by side (matrix/simd.hpp), never within one
// lane's sum, so vectorized and scalar builds agree bit for bit too.
#include <cstdlib>
#include <string>
#include <type_traits>

#include "matrix/csr.hpp"
#include "matrix/kernel_tuning.hpp"
#include "matrix/simd.hpp"
#include "matrix/spmm.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace csrl {

namespace {

using kernel_tuning::kChunksPerThread;
using kernel_tuning::kParallelNnzThreshold;

void check_block_shape(const char* what, std::size_t width, std::size_t stride,
                       std::size_t x_size, std::size_t x_rows,
                       std::size_t y_size, std::size_t y_rows) {
  if (width == 0 || width > kMaxRhsBlock)
    throw ModelError(std::string(what) + ": block width must lie in [1, " +
                     std::to_string(kMaxRhsBlock) + "]");
  if (stride < width)
    throw ModelError(std::string(what) + ": stride below block width");
  if (x_size < x_rows * stride || y_size < y_rows * stride)
    throw ModelError(std::string(what) + ": block size mismatch");
}

// Run `body` with the block width as a compile-time constant for the
// power-of-two widths resolve_rhs_block favours, so the per-lane loops
// fully unroll and each lane's accumulator stays register-resident
// across a row's entries; other widths run the identical code with the
// width as a plain runtime value.  Specialisation only changes
// trip-count knowledge — per-lane association order is the same either
// way, so results are bitwise independent of which path ran.
template <typename Body>
void dispatch_block_width(std::size_t width, Body&& body) {
  switch (width) {
    case 1: body(std::integral_constant<std::size_t, 1>()); return;
    case 2: body(std::integral_constant<std::size_t, 2>()); return;
    case 4: body(std::integral_constant<std::size_t, 4>()); return;
    case 8: body(std::integral_constant<std::size_t, 8>()); return;
    case 16: body(std::integral_constant<std::size_t, 16>()); return;
    default: body(width); return;
  }
}

// Stack-array capacity for a dispatched width: exact for the static
// widths (small arrays scalarise cleanly), kMaxRhsBlock otherwise.
template <typename BW>
constexpr std::size_t lane_capacity() {
  if constexpr (std::is_same_v<BW, std::size_t>) return kMaxRhsBlock;
  else return BW::value;
}

/// Deterministic cost charge for one block product (DESIGN.md 3h).  The
/// model captures exactly what blocking buys: the CsrEntry stream
/// (16 B/entry) and row_ptr slots (8 B/row) are paid ONCE per product,
/// while the x gathers and y writes (8 B each) scale with the lane
/// count — so bytes-per-lane falls as the width grows, and the perf
/// diff tool can verify the saving from counters alone.
inline void charge_spmm_cost([[maybe_unused]] std::uint64_t nnz,
                             [[maybe_unused]] std::uint64_t rows,
                             [[maybe_unused]] std::uint64_t width) {
  CSRL_COUNT("cost/spmm/flops", 2 * nnz * width);
  CSRL_COUNT("cost/spmm/bytes", 16 * nnz + 8 * rows + 8 * width * (nnz + rows));
}

}  // namespace

std::size_t resolve_rhs_block(std::size_t requested) {
  if (requested == 0) {
    const char* env = std::getenv("CSRL_RHS_BLOCK");
    if (env == nullptr || *env == '\0') return kDefaultRhsBlock;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0' || parsed == 0 || parsed > kMaxRhsBlock)
      throw ModelError(
          "CSRL_RHS_BLOCK must be an integer in [1, " +
          std::to_string(kMaxRhsBlock) + "], got \"" + env + "\"");
    return static_cast<std::size_t>(parsed);
  }
  if (requested > kMaxRhsBlock)
    throw ModelError("rhs_block must lie in [1, " +
                     std::to_string(kMaxRhsBlock) + "] (0 = automatic)");
  return requested;
}

void pack_block(std::span<const double* const> cols, std::span<double> block,
                std::size_t row_begin, std::size_t row_end,
                std::size_t stride) {
  const std::size_t width = cols.size();
  for (std::size_t i = row_begin; i < row_end; ++i) {
    double* out = block.data() + i * stride;
    for (std::size_t b = 0; b < width; ++b) out[b] = cols[b][i];
  }
}

void unpack_block(std::span<const double> block,
                  std::span<double* const> cols, std::size_t row_begin,
                  std::size_t row_end, std::size_t stride) {
  const std::size_t width = cols.size();
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const double* in = block.data() + i * stride;
    for (std::size_t b = 0; b < width; ++b) cols[b][i] = in[b];
  }
}

void CsrMatrix::multiply_block(std::span<const double> x, std::span<double> y,
                               std::size_t width, std::size_t stride) const {
  check_block_shape("CsrMatrix::multiply_block", width, stride, x.size(),
                    cols_, y.size(), rows_);
  // Counted per lane so SpMV-reduction ratios (bench_fig1, test_batch)
  // keep their meaning, plus SpMM-level counters for the block layer.
  CSRL_COUNT("spmv/multiply", width);
  CSRL_COUNT("matrix/spmm/block_products", 1);
  CSRL_COUNT("matrix/spmm/columns", width);
  charge_spmm_cost(nnz(), rows_, width);

  dispatch_block_width(width, [&](auto bw) {
    const std::size_t w = bw;
    const auto gather_rows = [&](std::size_t row_begin, std::size_t row_end) {
      double acc[lane_capacity<decltype(bw)>()];
      for (std::size_t r = row_begin; r < row_end; ++r) {
        CSRL_PRAGMA_SIMD
        for (std::size_t b = 0; b < w; ++b) acc[b] = 0.0;
        for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
          const double v = entries_[i].value;
          const double* xc = x.data() + entries_[i].col * stride;
          CSRL_PRAGMA_SIMD
          for (std::size_t b = 0; b < w; ++b) acc[b] += v * xc[b];
        }
        double* yr = y.data() + r * stride;
        CSRL_PRAGMA_SIMD
        for (std::size_t b = 0; b < w; ++b) yr[b] = acc[b];
      }
    };

    const ThreadPool& pool = ThreadPool::global();
    if (pool.num_threads() == 1 || nnz() * w < kParallelNnzThreshold) {
      gather_rows(0, rows_);
      return;
    }
    const auto chunks = row_chunks(pool.num_threads() * kChunksPerThread);
    pool.parallel_for(0, chunks->size() - 1, 1,
                      [&](std::size_t chunk_begin, std::size_t chunk_end) {
                        for (std::size_t c = chunk_begin; c < chunk_end; ++c)
                          gather_rows((*chunks)[c], (*chunks)[c + 1]);
                      });
  });
}

}  // namespace csrl
