// Internal tuning constants and helpers shared by the SpMV kernels
// (matrix/csr.cpp) and the phase-lane kernel (matrix/phase_operator.cpp).
// Not part of the public API.
#pragma once

#include <atomic>
#include <cstddef>

namespace csrl::kernel_tuning {

/// Below this many stored entries a product is cheaper than a dispatch.
constexpr std::size_t kParallelNnzThreshold = 1 << 14;

/// Row chunks per pool lane: a few chunks per thread so dynamic claiming
/// can even out row-structure imbalance that nnz balancing misses.
constexpr std::size_t kChunksPerThread = 4;

/// Merge a chunk-local max into the shared reduction slot.  max is
/// associative, commutative and exact, so the merge order across chunks
/// cannot change the result — the parallel diff is bit-identical to the
/// serial one.
inline void atomic_max(std::atomic<double>& slot, double value) {
  double current = slot.load(std::memory_order_relaxed);
  while (value > current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace csrl::kernel_tuning
