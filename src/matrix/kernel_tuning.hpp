// Internal tuning constants and helpers shared by the SpMV kernels
// (matrix/csr.cpp) and the phase-lane kernel (matrix/phase_operator.cpp).
// Not part of the public API.
#pragma once

#include <atomic>
#include <cstddef>

#include "util/thread_pool.hpp"

namespace csrl::kernel_tuning {

/// Below this many stored entries a product is cheaper than a dispatch.
constexpr std::size_t kParallelNnzThreshold = 1 << 14;

/// Row chunks per pool lane: a few chunks per thread so dynamic claiming
/// can even out row-structure imbalance that nnz balancing misses.
constexpr std::size_t kChunksPerThread = 4;

/// Run `tile(t, scan)`, which computes tile t in full and returns `scan`
/// && none of its entries moved, for every t < tiles on `pool`.  The tiles
/// share one verdict flag; a tile that starts after another cleared it
/// skips its comparisons.  The verdict, `scan` && no entry moved, is the
/// serial one whatever the tile order.
template <typename Tile>
bool tiles_converged(const ThreadPool& pool, std::size_t tiles, bool scan,
                     Tile&& tile) {
  std::atomic<bool> converged{scan};
  pool.parallel_for(0, tiles, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t)
      if (!tile(t, converged.load(std::memory_order_relaxed)))
        converged.store(false, std::memory_order_relaxed);
  });
  return converged.load(std::memory_order_relaxed);
}

}  // namespace csrl::kernel_tuning
