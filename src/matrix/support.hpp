// Active-support tracking for sparsity-aware SpMV.
//
// Backward uniformisation iterates start as the indicator of a (small)
// target set and spread to its predecessors one hop per step, so early
// iterations touch a tiny frontier of the state space while the dense
// kernel sweeps all of it.  A SupportMask names the states that may be
// non-zero in one iterate (a conservative superset of the true support);
// the active kernel in matrix/csr.hpp (CsrMatrix::multiply_active)
// propagates the mask alongside the vector and only visits the rows that
// see it, falling back to the dense kernel once the frontier stops being
// sparse (see TransientOptions::active_support).
//
// The mask is bitmap + index list so membership tests are O(1) and
// iteration is O(|mask|).  Capacity for the full universe is reserved at
// construction, so inserts inside iteration loops never allocate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace csrl {

/// A deferred running-sum update fused into an SpMV pass (see the fused
/// kernels in matrix/csr.hpp): out[i] += weight * x[i] applied during the
/// same memory traversal that reads x for the product.
struct FusedAxpy {
  double weight = 0.0;
  double* out = nullptr;
};

/// The fused step kernels (matrix/csr.hpp, matrix/phase_operator.hpp)
/// return converged: |y - x| <= tolerance for every entry, comparing up
/// to the first entry that moved (a NaN moved).  A negative tolerance,
/// such as this one, compares nothing and returns false.
inline constexpr double kNoConvergenceScan = -1.0;

/// Conservative superset of the non-zero positions of one iterate.
class SupportMask {
 public:
  SupportMask() = default;

  /// Empty mask over `universe` states; reserves full capacity up front.
  explicit SupportMask(std::size_t universe) : bitmap_(universe, 0) {
    members_.reserve(universe);
  }

  std::size_t universe() const { return bitmap_.size(); }
  std::size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }

  bool contains(std::size_t i) const { return bitmap_[i] != 0; }

  /// Insert `i` (idempotent).  Never allocates after construction.
  void insert(std::size_t i) {
    if (bitmap_[i] != 0) return;
    bitmap_[i] = 1;
    // lint:allow hot-alloc (members_ capacity is reserved to the state count at construction; append never reallocates)
    members_.push_back(i);
  }

  /// Remove every member, leaving capacity in place.  O(size()).
  void clear() {
    for (std::size_t i : members_) bitmap_[i] = 0;
    members_.clear();
  }

  /// Rebuild as the support of `x` (positions with x[i] != 0).
  void reset_to_support(std::span<const double> x) {
    clear();
    for (std::size_t i = 0; i < x.size(); ++i)
      if (x[i] != 0.0) insert(i);
  }

  /// Members in ascending order.  The active kernel calls this before
  /// traversing, so it visits rows in the dense kernel's order.  In-place
  /// introsort: no allocation.
  void sort();

  std::span<const std::size_t> members() const { return members_; }

 private:
  std::vector<std::uint8_t> bitmap_;
  std::vector<std::size_t> members_;
};

}  // namespace csrl
