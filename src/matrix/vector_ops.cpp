#include "matrix/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace csrl {

namespace {

void check_equal_length(std::size_t a, std::size_t b, const char* where) {
  // lint:allow hot-throw (argument validation guard at kernel entry)
  if (a != b) throw ModelError(std::string(where) + ": length mismatch");
}

// Below this length the dispatch costs more than the arithmetic.  Only
// order-insensitive operations (elementwise updates and max-reductions)
// run in parallel, so results stay bit-identical to the serial loops at
// any thread count.  Sum-type folds (dot, sum) deliberately stay
// sequential: their value depends on association order, and keeping the
// serial fold preserves bit-compatibility with existing regression
// baselines; they are O(n) with trivial constants and never dominate a
// checking run.  ThreadPool::parallel_reduce is available for callers
// that want a deterministic chunked sum instead.
constexpr std::size_t kParallelThreshold = 1 << 15;
constexpr std::size_t kGrain = 1 << 13;

}  // namespace

double dot(std::span<const double> a, std::span<const double> b) {
  check_equal_length(a.size(), b.size(), "dot");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  check_equal_length(x.size(), y.size(), "axpy");
  if (x.size() < kParallelThreshold) {
    for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
    return;
  }
  parallel_for(0, x.size(), kGrain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) y[i] += alpha * x[i];
  });
}

void scale(std::span<double> x, double alpha) {
  if (x.size() < kParallelThreshold) {
    for (double& v : x) v *= alpha;
    return;
  }
  parallel_for(0, x.size(), kGrain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) x[i] *= alpha;
  });
}

double sum(std::span<const double> x) {
  double acc = 0.0;
  for (double v : x) acc += v;
  return acc;
}

double norm_inf(std::span<const double> x) {
  const auto chunk_max = [&](std::size_t lo, std::size_t hi) {
    double best = 0.0;
    for (std::size_t i = lo; i < hi; ++i) best = std::max(best, std::abs(x[i]));
    return best;
  };
  if (x.size() < kParallelThreshold) return chunk_max(0, x.size());
  // max is associative and commutative, so the chunked reduction equals
  // the serial fold bit for bit.
  return ThreadPool::global().parallel_reduce(
      0, x.size(), kGrain, 0.0, chunk_max,
      [](double a, double b) { return std::max(a, b); });
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  check_equal_length(a.size(), b.size(), "max_abs_diff");
  const auto chunk_max = [&](std::size_t lo, std::size_t hi) {
    double best = 0.0;
    for (std::size_t i = lo; i < hi; ++i)
      best = std::max(best, std::abs(a[i] - b[i]));
    return best;
  };
  if (a.size() < kParallelThreshold) return chunk_max(0, a.size());
  return ThreadPool::global().parallel_reduce(
      0, a.size(), kGrain, 0.0, chunk_max,
      [](double x, double y) { return std::max(x, y); });
}

void normalise_l1(std::span<double> x) {
  const double total = sum(x);
  if (!(total > 0.0))
    // lint:allow hot-throw (zero-mass guard; the fatal exit, never taken on a distribution)
    throw NumericalError("normalise_l1: vector sum is not positive");
  scale(x, 1.0 / total);
}

std::vector<double> zeros(std::size_t n) { return std::vector<double>(n, 0.0); }

}  // namespace csrl
