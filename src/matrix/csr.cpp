#include "matrix/csr.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "matrix/kernel_tuning.hpp"
#include "obs/obs.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace csrl {

namespace {

using kernel_tuning::kChunksPerThread;
using kernel_tuning::kParallelNnzThreshold;
using kernel_tuning::tiles_converged;

/// Deterministic cost accounting (DESIGN.md 3h).  The charges are pure
/// functions of structural dimensions — touched nnz, touched rows, lane
/// counts — never of floating-point values, so totals are bit-identical
/// across machines, thread counts and reps and can gate CI exactly.
/// Traffic model per SpMV: stream the touched CsrEntry records (16 B
/// each) plus their row_ptr slots (8 B), gather x (8 B per entry) and
/// write y (8 B per row) — 24*nnz + 16*rows bytes, 2*nnz flops.
inline void charge_spmv_cost([[maybe_unused]] std::uint64_t touched_nnz,
                             [[maybe_unused]] std::uint64_t touched_rows) {
  CSRL_COUNT("cost/spmv/flops", 2 * touched_nnz);
  CSRL_COUNT("cost/spmv/bytes", 24 * touched_nnz + 16 * touched_rows);
}

/// Fused-epilogue charge: each touched position updates `lanes` running
/// sums in place — one multiply-add (2 flops) and a read-modify-write of
/// the 8 B accumulator (16 B) per lane; the x value is already resident
/// from the product traversal.
inline void charge_epilogue_cost([[maybe_unused]] std::uint64_t positions,
                                 [[maybe_unused]] std::uint64_t lanes) {
  CSRL_COUNT("cost/epilogue/flops", 2 * positions * lanes);
  CSRL_COUNT("cost/epilogue/bytes", 16 * positions * lanes);
}

/// The convergence verdict of an active step.  Off both masks x and y
/// are exact zeros; an entry that left the frontier (in `in`, not in
/// `out`) has y = 0 and moved by |x|.
bool active_converged(std::span<const double> x, std::span<const double> y,
                      const SupportMask& in, const SupportMask& out,
                      double tolerance) {
  if (!(tolerance >= 0.0)) return false;
  for (std::size_t r : out.members())
    if (!(std::abs(y[r] - x[r]) <= tolerance)) return false;
  for (std::size_t i : in.members())
    if (!out.contains(i) && !(std::abs(x[i]) <= tolerance)) return false;
  return true;
}

}  // namespace

CsrBuilder::CsrBuilder(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols) {}

void CsrBuilder::add(std::size_t row, std::size_t col, double value) {
  if (row >= rows_ || col >= cols_)
    throw ModelError("CsrBuilder::add: index (" + std::to_string(row) + ", " +
                     std::to_string(col) + ") out of range for " +
                     std::to_string(rows_) + "x" + std::to_string(cols_));
  if (!std::isfinite(value))
    throw ModelError("CsrBuilder::add: non-finite value");
  if (value == 0.0) return;
  triplets_.push_back({row, col, value});
}

CsrMatrix CsrBuilder::build() const {
  CsrMatrix m(rows_, cols_);

  // Counting sort by row, then sort each row by column and merge duplicates.
  std::vector<std::size_t> counts(rows_ + 1, 0);
  for (const auto& t : triplets_) ++counts[t.row + 1];
  for (std::size_t r = 0; r < rows_; ++r) counts[r + 1] += counts[r];

  std::vector<CsrEntry> scratch(triplets_.size());
  {
    std::vector<std::size_t> cursor(counts.begin(), counts.end() - 1);
    for (const auto& t : triplets_) scratch[cursor[t.row]++] = {t.col, t.value};
  }

  m.row_ptr_.assign(rows_ + 1, 0);
  m.entries_.clear();
  m.entries_.reserve(scratch.size());
  for (std::size_t r = 0; r < rows_; ++r) {
    auto begin = scratch.begin() + static_cast<std::ptrdiff_t>(counts[r]);
    auto end = scratch.begin() + static_cast<std::ptrdiff_t>(counts[r + 1]);
    std::sort(begin, end,
              [](const CsrEntry& a, const CsrEntry& b) { return a.col < b.col; });
    std::size_t row_count = 0;
    for (auto it = begin; it != end; ++it) {
      if (row_count > 0 && m.entries_.back().col == it->col) {
        m.entries_.back().value += it->value;
      } else {
        m.entries_.push_back(*it);
        ++row_count;
      }
    }
    m.row_ptr_[r + 1] = m.row_ptr_[r] + row_count;
  }
  // Structural postcondition: strictly increasing columns per row,
  // in-range indices, extents covering every stored entry.  Everything
  // downstream (binary searches in at(), the transpose-gather identity of
  // multiply_left) silently assumes this.
  CSRL_CONTRACT(
      [&] {
        std::size_t covered = 0;
        for (std::size_t r = 0; r < rows_; ++r) {
          for (std::size_t i = m.row_ptr_[r]; i < m.row_ptr_[r + 1]; ++i) {
            if (m.entries_[i].col >= cols_) return false;
            if (i > m.row_ptr_[r] && m.entries_[i - 1].col >= m.entries_[i].col)
              return false;
            if (!std::isfinite(m.entries_[i].value)) return false;
          }
          covered += m.row_ptr_[r + 1] - m.row_ptr_[r];
        }
        return covered == m.entries_.size();
      }(),
      "CsrBuilder::build produced a structurally invalid " +
          std::to_string(rows_) + "x" + std::to_string(cols_) + " matrix");
  return m;
}

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {}

CsrMatrix::CsrMatrix(const CsrMatrix& other)
    : rows_(other.rows_),
      cols_(other.cols_),
      row_ptr_(other.row_ptr_),
      entries_(other.entries_) {}

CsrMatrix& CsrMatrix::operator=(const CsrMatrix& other) {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  row_ptr_ = other.row_ptr_;
  entries_ = other.entries_;
  MutexLock lock(cache_mutex_);
  chunk_cache_.reset();
  chunk_target_ = 0;
  transpose_cache_.reset();
  return *this;
}

// Moves require exclusive access to `other` anyway, but the thread-safety
// analysis reasons per field, not per object: stealing other's guarded
// caches takes other's mutex (uncontended — one atomic op — and moves are
// construction-time, never on a kernel path).  The constructed object's
// own fields are exempt inside its constructor.
CsrMatrix::CsrMatrix(CsrMatrix&& other) noexcept
    : rows_(other.rows_),
      cols_(other.cols_),
      row_ptr_(std::move(other.row_ptr_)),
      entries_(std::move(other.entries_)) {
  MutexLock lock(other.cache_mutex_);
  chunk_cache_ = std::move(other.chunk_cache_);
  chunk_target_ = other.chunk_target_;
  transpose_cache_ = std::move(other.transpose_cache_);
  other.rows_ = 0;
  other.cols_ = 0;
  other.row_ptr_ = {0};
  other.chunk_target_ = 0;
}

CsrMatrix& CsrMatrix::operator=(CsrMatrix&& other) noexcept {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  row_ptr_ = std::move(other.row_ptr_);
  entries_ = std::move(other.entries_);
  {
    MutexLock mine(cache_mutex_);
    MutexLock theirs(other.cache_mutex_);
    chunk_cache_ = std::move(other.chunk_cache_);
    chunk_target_ = other.chunk_target_;
    transpose_cache_ = std::move(other.transpose_cache_);
    other.chunk_target_ = 0;
  }
  other.rows_ = 0;
  other.cols_ = 0;
  other.row_ptr_ = {0};
  return *this;
}

std::shared_ptr<const std::vector<std::size_t>> CsrMatrix::row_chunks(
    std::size_t target_chunks) const {
  if (target_chunks == 0) target_chunks = 1;
  MutexLock lock(cache_mutex_);
  if (chunk_cache_ && chunk_target_ == target_chunks) return chunk_cache_;

  // Walk row_ptr_ once, closing a chunk whenever it has swallowed its
  // share of the stored entries.  Empty rows ride along with whichever
  // chunk is open; every chunk holds at least one row.
  auto bounds = std::make_shared<std::vector<std::size_t>>();
  bounds->push_back(0);
  if (rows_ > 0) {
    const double per_chunk =
        static_cast<double>(nnz()) / static_cast<double>(target_chunks);
    std::size_t closed = 1;  // chunks closed so far
    for (std::size_t r = 1; r < rows_; ++r) {
      if (bounds->size() >= target_chunks) break;
      const double filled = static_cast<double>(row_ptr_[r]);
      if (filled >= per_chunk * static_cast<double>(closed)) {
        bounds->push_back(r);
        ++closed;
      }
    }
    bounds->push_back(rows_);
  }
  chunk_cache_ = std::move(bounds);
  chunk_target_ = target_chunks;
  return chunk_cache_;
}

const CsrMatrix& CsrMatrix::cached_transpose() const {
  {
    MutexLock lock(cache_mutex_);
    if (transpose_cache_) return *transpose_cache_;
  }
  // Build outside the lock (it is expensive); a duplicate build on a race
  // is wasted work, not an error — first writer wins.
  auto built = std::make_shared<const CsrMatrix>(transposed());
  MutexLock lock(cache_mutex_);
  if (!transpose_cache_) transpose_cache_ = std::move(built);
  return *transpose_cache_;
}

std::span<const CsrEntry> CsrMatrix::row(std::size_t r) const {
  if (r >= rows_) throw ModelError("CsrMatrix::row: row index out of range");
  return {entries_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
}

double CsrMatrix::at(std::size_t r, std::size_t c) const {
  const auto entries = row(r);
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), c,
      [](const CsrEntry& e, std::size_t col) { return e.col < col; });
  if (it != entries.end() && it->col == c) return it->value;
  return 0.0;
}

void CsrMatrix::multiply(std::span<const double> x, std::span<double> y) const {
  if (x.size() != cols_ || y.size() != rows_)
    throw ModelError("CsrMatrix::multiply: dimension mismatch");
  CSRL_COUNT("spmv/multiply", 1);
  charge_spmv_cost(nnz(), rows_);

  const auto gather_rows = [&](std::size_t row_begin, std::size_t row_end) {
    for (std::size_t r = row_begin; r < row_end; ++r) {
      double acc = 0.0;
      for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
        acc += entries_[i].value * x[entries_[i].col];
      y[r] = acc;
    }
  };

  const ThreadPool& pool = ThreadPool::global();
  if (pool.num_threads() == 1 || nnz() < kParallelNnzThreshold) {
    gather_rows(0, rows_);
    return;
  }
  // Each y[r] is one independent gather, so any partition of the rows
  // yields bit-identical results; the nnz-balanced chunks only equalise
  // the work.
  const auto chunks = row_chunks(pool.num_threads() * kChunksPerThread);
  pool.parallel_for(0, chunks->size() - 1, 1,
                    [&](std::size_t chunk_begin, std::size_t chunk_end) {
                      for (std::size_t c = chunk_begin; c < chunk_end; ++c)
                        gather_rows((*chunks)[c], (*chunks)[c + 1]);
                    });
}

void CsrMatrix::multiply_left(std::span<const double> x, std::span<double> y) const {
  if (x.size() != rows_ || y.size() != cols_)
    throw ModelError("CsrMatrix::multiply_left: dimension mismatch");
  CSRL_COUNT("spmv/multiply_left", 1);
  charge_spmv_cost(nnz(), rows_);

  const ThreadPool& pool = ThreadPool::global();
  if (pool.num_threads() == 1 || nnz() < kParallelNnzThreshold) {
    std::fill(y.begin(), y.end(), 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
      const double xr = x[r];
      if (xr == 0.0) continue;
      for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
        y[entries_[i].col] += xr * entries_[i].value;
    }
    return;
  }

  // Parallel form: gather along the cached transpose instead of scattering
  // along rows, so each y[c] is owned by exactly one chunk.  The transpose
  // stores each column's entries by increasing original row, which is the
  // exact order the serial scatter adds contributions to y[c] — the two
  // forms are therefore bit-identical.
  const CsrMatrix& t = cached_transpose();
  const auto chunks = t.row_chunks(pool.num_threads() * kChunksPerThread);
  pool.parallel_for(
      0, chunks->size() - 1, 1,
      [&](std::size_t chunk_begin, std::size_t chunk_end) {
        for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
          for (std::size_t col = (*chunks)[c]; col < (*chunks)[c + 1]; ++col) {
            double acc = 0.0;
            for (const CsrEntry& e : t.row_unchecked(col)) {
              const double xr = x[e.col];
              if (xr != 0.0) acc += xr * e.value;
            }
            y[col] = acc;
          }
        }
      });
}

bool CsrMatrix::multiply_fused(std::span<const double> x,
                               std::span<double> y,
                               std::span<const FusedAxpy> pendings,
                               double tolerance) const {
  if (rows_ != cols_ || x.size() != cols_ || y.size() != rows_)
    throw ModelError("CsrMatrix::multiply_fused: dimension mismatch");
  CSRL_COUNT("spmv/multiply", 1);
  CSRL_COUNT("matrix/spmv/rows_active", rows_);
  charge_spmv_cost(nnz(), rows_);
  charge_epilogue_cost(rows_, pendings.size());

  const auto process_rows = [&](std::size_t row_begin, std::size_t row_end,
                                bool scan) {
    for (std::size_t r = row_begin; r < row_end; ++r) {
      double acc = 0.0;
      for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
        acc += entries_[i].value * x[entries_[i].col];
      y[r] = acc;
      const double xr = x[r];
      for (const FusedAxpy& p : pendings) p.out[r] += p.weight * xr;
      scan = scan && std::abs(acc - xr) <= tolerance;
    }
    return scan;
  };

  const ThreadPool& pool = ThreadPool::global();
  if (pool.num_threads() == 1 || nnz() < kParallelNnzThreshold)
    return process_rows(0, rows_, tolerance >= 0.0);

  const auto chunks = row_chunks(pool.num_threads() * kChunksPerThread);
  return tiles_converged(pool, chunks->size() - 1, tolerance >= 0.0,
                         [&](std::size_t c, bool scan) {
                           return process_rows((*chunks)[c], (*chunks)[c + 1],
                                               scan);
                         });
}

bool CsrMatrix::multiply_active(std::span<const double> x,
                                std::span<double> y, const SupportMask& in,
                                SupportMask& out,
                                std::span<const FusedAxpy> pendings,
                                double tolerance) const {
  if (rows_ != cols_ || x.size() != cols_ || y.size() != rows_ ||
      in.universe() != rows_ || out.universe() != rows_)
    throw ModelError("CsrMatrix::multiply_active: dimension mismatch");
  CSRL_COUNT("spmv/multiply", 1);

  // Clear the stale support of y, then find the rows that can see the
  // frontier: exactly the rows holding an entry in an `in` column, i.e.
  // the transpose rows of the `in` members.
  for (std::size_t i : out.members()) y[i] = 0.0;
  out.clear();
  const CsrMatrix& t = cached_transpose();
  for (std::size_t c : in.members())
    for (const CsrEntry& e : t.row_unchecked(c)) out.insert(e.col);
  out.sort();
  CSRL_COUNT("matrix/spmv/rows_active", out.size());
  if (CSRL_OBS_ACTIVE()) {
    // Touched-nnz sum only when recording: the active path's whole point
    // is skipping rows, so its cost charge must count what it touched.
    std::uint64_t touched = 0;
    for (std::size_t r : out.members())
      touched += row_ptr_[r + 1] - row_ptr_[r];
    charge_spmv_cost(touched, out.size());
    charge_epilogue_cost(in.size(), pendings.size());
  }

  // Full-row gathers for the touched rows: off-frontier columns hold an
  // exact +0.0, so every skipped term of the dense kernel contributes an
  // exact +0.0 there too — identical bits, a fraction of the traffic.
  for (std::size_t r : out.members()) {
    double acc = 0.0;
    for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
      acc += entries_[i].value * x[entries_[i].col];
    y[r] = acc;
  }
  for (const FusedAxpy& p : pendings)
    for (std::size_t i : in.members()) p.out[i] += p.weight * x[i];
  return active_converged(x, y, in, out, tolerance);
}

void CsrMatrix::warm_kernel_caches(bool transpose) const {
  const ThreadPool& pool = ThreadPool::global();
  if (pool.num_threads() > 1 && nnz() >= kParallelNnzThreshold)
    row_chunks(pool.num_threads() * kChunksPerThread);
  if (transpose) (void)cached_transpose();
}

std::vector<double> CsrMatrix::row_sums() const {
  std::vector<double> sums(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
      sums[r] += entries_[i].value;
  return sums;
}

std::vector<double> CsrMatrix::diagonal() const {
  const std::size_t n = std::min(rows_, cols_);
  std::vector<double> d(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) d[r] = at(r, r);
  return d;
}

CsrMatrix CsrMatrix::transposed() const {
  CsrBuilder b(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (const auto& e : row(r)) b.add(e.col, r, e.value);
  return b.build();
}

CsrMatrix CsrMatrix::scaled(double factor) const {
  CsrMatrix m = *this;
  for (auto& e : m.entries_) e.value *= factor;
  return m;
}

double CsrMatrix::max_abs() const {
  double best = 0.0;
  for (const auto& e : entries_) best = std::max(best, std::abs(e.value));
  return best;
}

}  // namespace csrl
