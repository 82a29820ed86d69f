// The lane-product kernel (CsrMatrix::multiply_lanes_row,
// matrix/spmm.cpp) against looped one-RHS products.
//
// Labelled `tsan` in tests/CMakeLists.txt: the differential sweep runs
// the rows over the pool at 1 and 4 threads, so under
// -DCSRL_SANITIZE=thread it doubles as a race-detection workload for
// concurrent row products over one shared input.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "matrix/csr.hpp"
#include "models/synthetic.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace csrl {
namespace {

// Widths around the kernel's 8-lane register tile (1, 7: remainder only;
// 64: whole tiles; 65: tiles plus a remainder) and one far above any
// former block cap.
constexpr std::size_t kWidths[] = {1, 7, 64, 65, 1000};

void expect_bitwise_equal(std::span<const double> a, std::span<const double> b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what << ": lane result differs from the one-RHS reference";
}

// A state-major block of `n` rows and `stride` lanes: deterministic
// values with a sprinkling of exact zeros (and negative zeros, whose
// products must still start each lane's sum from +0.0).
std::vector<double> make_rows(std::size_t n, std::size_t stride,
                              std::uint64_t seed) {
  std::vector<double> rows(n * stride);
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + 1;
  for (double& v : rows) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t bits = s >> 33;
    v = (bits % 7 == 0)    ? 0.0
        : (bits % 11 == 0) ? -0.0
                           : static_cast<double>(bits % 1000) / 997.0;
  }
  return rows;
}

// The whole lane product y[r * stride + l] for l < width, its rows spread
// over the shared pool the way the Sericola engine spreads its tiles.
void multiply_all_lanes(const CsrMatrix& p, std::span<const double> x,
                        std::span<double> y, std::size_t width,
                        std::size_t stride) {
  ThreadPool::global().parallel_for(
      0, p.rows(), 8, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r)
          p.multiply_lanes_row(r, x.data(), stride, width,
                               y.data() + r * stride, 1);
      });
}

std::vector<double> lane(std::span<const double> rows, std::size_t n,
                         std::size_t stride, std::size_t l) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = rows[i * stride + l];
  return out;
}

// -- The kernel: each lane bitwise equals its one-RHS product -------------

TEST(SpmmKernels, LanesMatchLoopedOneRhsAcrossSeedsWidthsAndThreads) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Mrm model = random_mrm(seed, 96, 0.03);
    const CsrMatrix& p = model.rates();
    const std::size_t n = model.num_states();
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ThreadPool::set_global_threads(threads);
      for (std::size_t width : kWidths) {
        const std::size_t stride = width + 3;
        const std::vector<double> x = make_rows(n, stride, seed + width);
        std::vector<double> y(n * stride, -1.0);
        multiply_all_lanes(p, x, y, width, stride);
        std::vector<double> ref(n);
        for (std::size_t l = 0; l < width; ++l) {
          p.multiply(lane(x, n, stride, l), ref);
          expect_bitwise_equal(lane(y, n, stride, l), ref,
                               "width " + std::to_string(width) + " lane " +
                                   std::to_string(l) + " at " +
                                   std::to_string(threads) + " threads");
        }
        for (std::size_t l = width; l < stride; ++l)
          for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(y[i * stride + l], -1.0) << "lane past width written";
      }
    }
    ThreadPool::set_global_threads(1);
  }
}

TEST(SpmmKernels, InterleavedOutputMatchesContiguousRows) {
  const Mrm model = random_mrm(9, 64, 0.05);
  const CsrMatrix& p = model.rates();
  const std::size_t n = model.num_states();
  for (std::size_t width : kWidths) {
    const std::size_t stride = width + 1;
    const std::vector<double> x = make_rows(n, stride, width);
    std::vector<double> whole(n * stride, 0.0);
    multiply_all_lanes(p, x, whole, width, stride);
    // Row r's lanes interleaved with three other rows: out[l * 4 + slot].
    constexpr std::size_t kInterleave = 4;
    for (std::size_t r = 0; r < n; ++r) {
      std::vector<double> out(width * kInterleave, -1.0);
      const std::size_t slot = r % kInterleave;
      p.multiply_lanes_row(r, x.data(), stride, width, out.data() + slot,
                           kInterleave);
      for (std::size_t l = 0; l < width; ++l)
        ASSERT_EQ(std::memcmp(&out[l * kInterleave + slot],
                              &whole[r * stride + l], sizeof(double)),
                  0)
            << "row " << r << " lane " << l << " width " << width;
    }
  }
}

TEST(SpmmKernels, CountsBlockProductsAndColumns) {
  const Mrm model = random_mrm(2, 32, 0.1);
  const CsrMatrix& p = model.rates();
  obs::ScopedRecording recording;
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  p.charge_lane_product(100);
  p.charge_lane_product(2);
  p.charge_lane_product(7);
  const obs::MetricsSnapshot delta =
      obs::metrics_delta(before, obs::snapshot_metrics());
#ifdef CSRL_OBS_DISABLED
  EXPECT_EQ(delta.counter("matrix/spmm/block_products"), 0u);
#else
  EXPECT_EQ(delta.counter("matrix/spmm/block_products"), 3u);
  EXPECT_EQ(delta.counter("matrix/spmm/columns"), 109u);
  EXPECT_EQ(delta.counter("spmv/multiply"), 109u);
  EXPECT_EQ(delta.counter("spmv/multiply_left"), 0u);
  // The entry stream and row pointers are charged once per product.
  const std::uint64_t nnz = p.nnz();
  EXPECT_EQ(delta.counter("cost/spmm/flops"), 2u * nnz * 109u);
  EXPECT_EQ(delta.counter("cost/spmm/bytes"),
            3u * (16u * nnz + 8u * 32u) + 8u * 109u * (nnz + 32u));
#endif
}

}  // namespace
}  // namespace csrl
