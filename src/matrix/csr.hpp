// Compressed sparse row (CSR) matrices.
//
// Every numerical procedure in csrlcheck (uniformisation, the Sericola
// recursion, the Tijms-Veldman scheme, the linear solvers) is driven by
// sparse matrix-vector products over rate or probability matrices, so CSR
// is the central data structure of the library.  Matrices are immutable
// once built; assembly goes through CsrBuilder, which accepts duplicate
// (row, col) entries and sums them, matching how rate matrices are
// accumulated from higher-level formalisms (several SRN transitions may
// connect the same pair of markings).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "matrix/fused_step.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace csrl {

/// One stored entry of a sparse matrix row: column index and value.
struct CsrEntry {
  std::size_t col;
  double value;
};

class CsrMatrix;

/// Incremental triplet assembler for CsrMatrix.
class CsrBuilder {
 public:
  /// Builder for a matrix with `rows` x `cols` shape.
  CsrBuilder(std::size_t rows, std::size_t cols);

  /// Record `value` at (row, col); duplicates accumulate additively.
  /// Zero values are dropped.
  void add(std::size_t row, std::size_t col, double value);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Assemble the CSR matrix.  The builder may be reused afterwards (it is
  /// left unchanged).
  CsrMatrix build() const;

 private:
  struct Triplet {
    std::size_t row;
    std::size_t col;
    double value;
  };

  std::size_t rows_;
  std::size_t cols_;
  std::vector<Triplet> triplets_;
};

/// Immutable sparse matrix in compressed-sparse-row form.
///
/// Both matrix-vector products run on the shared thread pool when it has
/// more than one lane; each product is bit-identical to its serial form at
/// any thread count (rows are gathered independently, and the left product
/// gathers along the cached transpose in the same per-element accumulation
/// order the serial scatter uses).  The row partition is nnz-balanced —
/// chunk boundaries equalise stored entries, not row counts — and cached
/// on the matrix after the first parallel product.
class CsrMatrix {
 public:
  /// Empty 0 x 0 matrix.
  CsrMatrix() = default;

  /// Zero matrix of the given shape.
  CsrMatrix(std::size_t rows, std::size_t cols);

  // Copies share no cache state (the copy re-derives its partition and
  // transpose lazily); moves steal them.
  CsrMatrix(const CsrMatrix& other);
  CsrMatrix& operator=(const CsrMatrix& other);
  CsrMatrix(CsrMatrix&& other) noexcept;
  CsrMatrix& operator=(CsrMatrix&& other) noexcept;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Number of stored (structurally non-zero) entries.
  std::size_t nnz() const { return entries_.size(); }

  /// The stored entries of row `r`, ordered by increasing column.
  /// Throws ModelError when `r` is out of range.
  std::span<const CsrEntry> row(std::size_t r) const;

  /// row() without the range check.  Precondition: r < rows().  This is
  /// the form the kernels use from their inner loops, whose indices are
  /// in range by construction — the analyzer's hot-path pass statically
  /// rejects reachable throws there (scripts/analyze, rule hot-throw), and
  /// a bounds check per gathered entry is measurable on the SpMV/SpMM
  /// paths anyway.  External callers go through row().
  std::span<const CsrEntry> row_unchecked(std::size_t r) const noexcept {
    return {entries_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
  }

  /// Value at (r, c); zero if not stored.  O(log nnz(row)).
  double at(std::size_t r, std::size_t c) const;

  /// y = A x  (gathers along rows).  Requires x.size() == cols().
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// y = x A, i.e. y^T = A^T x^T (scatters along rows).  This is the
  /// product used to push probability distributions through a DTMC:
  /// pi_{n+1} = pi_n P (power iteration for stationary distributions).
  /// Requires x.size() == rows().
  void multiply_left(std::span<const double> x, std::span<double> y) const;

  // -- Fused series kernel (ctmc/uniformisation.cpp) -----------------------
  //
  // One memory traversal instead of three for the backward uniformisation
  // loop:
  // the product, the deferred Poisson-weight axpys of the previous step
  // (`pendings`: out[i] += weight * x[i]) and the convergence predicate
  // (returned; see kNoConvergenceScan) all ride the same pass over the
  // vectors.  Requires a square matrix and x/y/pending targets of size
  // rows() with no aliasing between them.  Every per-element operation
  // matches the unfused kernel exactly, so results are bit-identical to
  // separate multiply + axpy calls, serial or pooled, and so is the
  // verdict (the row chunks share one flag).

  /// Fused y = A x; see above.
  bool multiply_fused(std::span<const double> x, std::span<double> y,
                      std::span<const FusedAxpy> pendings,
                      double tolerance) const;

  // -- Lane products (matrix/spmm.cpp) -------------------------------------
  //
  // Many right-hand sides through ONE traversal of the stored matrix.
  // The vectors are stored state-major: x[j * stride + l] is lane l of
  // state j, so each stored entry (r, c, v) reads the contiguous lane run
  // at x + c * stride and the lane loops vectorize (matrix/simd.hpp).
  // Lane l of row r accumulates v_1 * x_l[c_1] + v_2 * x_l[c_2] + ...
  // from +0.0 in the row's entry order, exactly as multiply() does, so
  // every lane is bitwise the one-RHS product of that lane, at any
  // width, thread count or SIMD gear.  There is no width cap: callers
  // read and write the lanes in place, with no packing.

  /// Row r of the lane product: out[l * out_stride] =
  /// sum_c A(r, c) * x[c * stride + l] for every lane l < width.  Callers
  /// run it row by row so they can fuse it with per-row work and lay the
  /// lanes of a few rows out interleaved; rows are independent, so any
  /// split of the rows over threads gives the same bits.  Charges no
  /// counters (see charge_lane_product).  Preconditions: r < rows(),
  /// width <= stride, x covers cols() * stride doubles, out covers
  /// (width - 1) * out_stride + 1 doubles and does not overlap x.
  void multiply_lanes_row(std::size_t r, const double* x, std::size_t stride,
                          std::size_t width, double* out,
                          std::size_t out_stride) const noexcept;

  /// The counters of one lane product of `width` lanes over every row,
  /// charged from the structure alone (DESIGN.md 3h): spmv/multiply per
  /// lane, one matrix/spmm/block_products, and cost/spmm/{flops,bytes}
  /// with the entry stream paid once for all lanes.  Callers charge it
  /// once per product.
  void charge_lane_product(std::size_t width) const;

  /// Pre-build the row partition that a pooled multiply_fused creates on
  /// first use, so the series loop that follows performs zero heap
  /// allocations.
  void warm_kernel_caches() const;

  /// Sum of the stored entries of each row (exit rates of a rate matrix).
  std::vector<double> row_sums() const;

  /// The diagonal as a dense vector (zero where not stored).
  std::vector<double> diagonal() const;

  /// Transposed copy.
  CsrMatrix transposed() const;

  /// Copy with every value multiplied by `factor`.
  CsrMatrix scaled(double factor) const;

  /// nnz-balanced row partition into at most `target_chunks` chunks:
  /// boundaries b_0 = 0 < b_1 < ... < b_c = rows() such that each
  /// [b_i, b_{i+1}) holds roughly nnz()/target_chunks stored entries.
  /// Computed once and cached (recomputed only if `target_chunks`
  /// changes, e.g. after a pool re-size).  Thread-safe; the returned
  /// vector stays valid even if the cache is refreshed concurrently.
  std::shared_ptr<const std::vector<std::size_t>> row_chunks(
      std::size_t target_chunks) const;

 private:
  friend class CsrBuilder;

  /// The cached transpose used by the parallel left product (built on
  /// first use, under lock).
  const CsrMatrix& cached_transpose() const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_ = {0};  // size rows_ + 1
  std::vector<CsrEntry> entries_;

  // Lazy, derived-only state; never observable through the public API
  // except as speed.
  mutable Mutex cache_mutex_;
  mutable std::shared_ptr<const std::vector<std::size_t>> chunk_cache_
      CSRL_GUARDED_BY(cache_mutex_);
  mutable std::size_t chunk_target_ CSRL_GUARDED_BY(cache_mutex_) = 0;
  mutable std::shared_ptr<const CsrMatrix> transpose_cache_
      CSRL_GUARDED_BY(cache_mutex_);
};

}  // namespace csrl
