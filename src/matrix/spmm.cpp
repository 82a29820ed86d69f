// Lane products for CsrMatrix (declared in matrix/csr.hpp).
//
// Layout and identity argument (DESIGN.md section 3f): the vectors are
// state-major — x[j * stride + l] is lane l of state j — so one stored
// entry (r, c, v) reads the contiguous lane run at x + c * stride.  The
// matrix is streamed ONCE for all lanes; that single streaming is the
// win, because the products are bound by matrix memory traffic, not
// flops.  Within a row, lane l accumulates v_1 * x_l[c_1] +
// v_2 * x_l[c_2] + ... in exactly the entry order of the one-RHS
// kernel, starting from +0.0, so each result lane is bitwise identical
// to a separate multiply() on that lane.  With CSRL_SIMD (matrix/simd.hpp)
// eight-lane register tiles run as four two-lane vectors; SIMD only ever
// runs independent lanes side by side, never within one lane's sum, so
// the vectorized and the scalar gear agree bit for bit.
#include "matrix/csr.hpp"
#include "matrix/simd.hpp"
#include "obs/obs.hpp"

namespace csrl {

void CsrMatrix::multiply_lanes_row(std::size_t r, const double* x,
                                   std::size_t stride, std::size_t width,
                                   double* out,
                                   std::size_t out_stride) const noexcept {
  const CsrEntry* first = entries_.data() + row_ptr_[r];
  const CsrEntry* last = entries_.data() + row_ptr_[r + 1];
  std::size_t lane = 0;
#if defined(CSRL_LANE_PAIRS)
  // Register tiles of eight lanes: the accumulators stay in registers
  // while the row's entries stream past.
  for (; lane + 8 <= width; lane += 8) {
    LanePair s0 = {}, s1 = {}, s2 = {}, s3 = {};
    for (const CsrEntry* e = first; e != last; ++e) {
      const LanePair v = {e->value, e->value};
      const double* xc = x + e->col * stride + lane;
      s0 += v * load_pair(xc);
      s1 += v * load_pair(xc + 2);
      s2 += v * load_pair(xc + 4);
      s3 += v * load_pair(xc + 6);
    }
    double* o = out + lane * out_stride;
    const LanePair sums[] = {s0, s1, s2, s3};
    for (std::size_t t = 0; t < 4; ++t) {
      o[2 * t * out_stride] = sums[t][0];
      o[(2 * t + 1) * out_stride] = sums[t][1];
    }
  }
#endif
  for (; lane < width; ++lane) {
    double acc = 0.0;
    for (const CsrEntry* e = first; e != last; ++e)
      acc += e->value * x[e->col * stride + lane];
    out[lane * out_stride] = acc;
  }
}

void CsrMatrix::charge_lane_product(
    [[maybe_unused]] std::size_t width) const {
  // Counted per lane so SpMV-reduction ratios (bench_fig1, test_batch)
  // keep their meaning.  The cost model (DESIGN.md 3h) pays the CsrEntry
  // stream (16 B/entry) and row_ptr slots (8 B/row) once per product,
  // while the x gathers and y writes (8 B each) scale with the lanes.
  [[maybe_unused]] const std::uint64_t w = width;
  [[maybe_unused]] const std::uint64_t entries = nnz();
  [[maybe_unused]] const std::uint64_t rows = rows_;
  CSRL_COUNT("spmv/multiply", w);
  CSRL_COUNT("matrix/spmm/block_products", 1);
  CSRL_COUNT("matrix/spmm/columns", w);
  CSRL_COUNT("cost/spmm/flops", 2 * entries * w);
  CSRL_COUNT("cost/spmm/bytes", 16 * entries + 8 * rows + 8 * w * (entries + rows));
}

}  // namespace csrl
