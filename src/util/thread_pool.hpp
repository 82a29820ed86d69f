// Fixed-size thread pool with a parallel_for primitive.
//
// Every hot path of the library (SpMV, the engines' per-state sweeps) is
// data-parallel over disjoint index ranges, so one shared pool with a
// chunked parallel_for covers all of them.  Design constraints, in order:
//
//  1. *Determinism.*  Checking the same formula must give bit-identical
//     results at any thread count.  parallel_for guarantees nothing about
//     execution order, so it may only be used where each output element is
//     computed from a fixed expression independent of the partitioning
//     (elementwise kernels, per-row SpMV gathers, max-reductions).
//     Order-sensitive reductions (sums) go through parallel_reduce, whose
//     chunk boundaries depend only on (range, grain) — never on the thread
//     count — and whose partials are combined in ascending chunk order, so
//     the floating-point evaluation tree is fixed.
//  2. *Reusability.*  Workers are started once and reused across every
//     formula of a Checker (and across Checkers); parallel_for dispatch is
//     two mutex acquisitions plus condition-variable wakeups.
//  3. *Safe nesting.*  Kernels call parallel_for and are themselves called
//     from parallel engine loops.  A parallel_for issued from inside a
//     worker (or from a caller already inside a parallel region) runs the
//     whole range inline on the calling thread instead of deadlocking.
//
// Thread-count resolution (ThreadPool::resolve_threads): an explicit
// request wins; otherwise the CSRL_THREADS environment variable; otherwise
// std::thread::hardware_concurrency().  The process-wide shared pool is
// created lazily by ThreadPool::global() and can be re-sized with
// ThreadPool::set_global_threads() (not concurrently with checking).
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace csrl {

class ThreadPool {
 public:
  /// A pool executing on `num_threads` lanes total (the calling thread
  /// participates, so num_threads - 1 workers are spawned).  0 resolves
  /// via resolve_threads().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of execution lanes (>= 1).
  std::size_t num_threads() const { return num_threads_; }

  /// Run `chunk_fn(chunk_begin, chunk_end)` over a partition of
  /// [begin, end) into chunks of at most `grain` indices.  Chunks are
  /// claimed dynamically, so per-chunk cost may be uneven; chunk_fn must
  /// write only to locations owned by its index range.  Empty ranges
  /// return immediately.  The first exception thrown by any chunk is
  /// rethrown on the calling thread after all chunks finished or were
  /// abandoned.  Runs inline when the pool has one lane, the range fits a
  /// single grain, or the caller is already inside a parallel region.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>&
                        chunk_fn) const;

  /// Deterministic chunked reduction: partition [begin, end) into chunks
  /// of exactly `grain` indices (last chunk shorter), map each chunk to a
  /// partial with `map(chunk_begin, chunk_end)`, and fold the partials
  /// with `combine` in ascending chunk order.  The evaluation tree depends
  /// only on (begin, end, grain), never on the thread count, so the result
  /// is bit-identical at 1 and N threads.
  template <typename T, typename MapFn, typename CombineFn>
  T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                    T init, MapFn map, CombineFn combine) const {
    if (end <= begin) return init;
    if (grain == 0) grain = 1;
    const std::size_t range = end - begin;
    const std::size_t num_chunks = (range + grain - 1) / grain;
    std::vector<T> partials(num_chunks, init);
    parallel_for(0, num_chunks, 1,
                 [&](std::size_t chunk_begin, std::size_t chunk_end) {
                   for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
                     const std::size_t lo = begin + c * grain;
                     const std::size_t hi = std::min(lo + grain, end);
                     partials[c] = map(lo, hi);
                   }
                 });
    T acc = init;
    for (const T& p : partials) acc = combine(acc, p);
    return acc;
  }

  /// Resolve a requested thread count: `requested` if non-zero, else the
  /// CSRL_THREADS environment variable if set and positive, else
  /// hardware_concurrency() (with a floor of 1).
  static std::size_t resolve_threads(std::size_t requested);

  /// The process-wide shared pool (created lazily).  Shared ownership so a
  /// re-size cannot pull the pool out from under a holder of the pointer.
  static std::shared_ptr<ThreadPool> global_ptr();
  static ThreadPool& global() { return *global_ptr(); }

  /// Replace the shared pool with one of `num_threads` lanes (0 = resolve
  /// automatically).  No-op if the current pool already has that many.
  /// Must not race with checking in progress.
  static void set_global_threads(std::size_t num_threads);

 private:
  struct Impl;
  std::size_t num_threads_;
  std::unique_ptr<Impl> impl_;  // absent for single-lane pools
};

/// RAII: while alive, every parallel_for issued from this thread (on any
/// pool) runs inline on the calling thread, exactly like a 1-lane pool.
/// This is the 1-thread vs N-thread agreement hook of the contract layer
/// (core/validate.cpp): re-running a computation under the guard must
/// reproduce the parallel result bit for bit.  Guards nest.
class ForceSerialGuard {
 public:
  ForceSerialGuard();
  ~ForceSerialGuard();
  ForceSerialGuard(const ForceSerialGuard&) = delete;
  ForceSerialGuard& operator=(const ForceSerialGuard&) = delete;
};

/// parallel_for on the shared pool — the form the kernels use.
inline void parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& chunk_fn) {
  ThreadPool::global().parallel_for(begin, end, grain, chunk_fn);
}

}  // namespace csrl
