// The lane-product kernel (CsrMatrix::multiply_lanes_row,
// matrix/spmm.cpp) against looped one-RHS products, Sericola's Bernstein
// sums (core/engines/bernstein_sums.hpp) in each lane width against the
// loop they came from, and the lane width simd_isa() reports.
//
// Labelled `tsan` in tests/CMakeLists.txt: the differential sweep runs
// the rows over the pool at 1 and 4 threads, so under
// -DCSRL_SANITIZE=thread it doubles as a race-detection workload for
// concurrent row products over one shared input.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/engines/bernstein_sums.hpp"
#include "matrix/csr.hpp"
#include "matrix/simd.hpp"
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


/// Sericola's Bernstein sums as the engine's tile pass wrote them inline
/// before they moved to add_bernstein_sums: the reference both lane
/// widths must reproduce bit for bit.
void reference_bernstein_sums(const BernsteinTerms& t, std::size_t n,
                              const double* coef, std::size_t tile,
                              std::size_t first, std::size_t count) {
  for (std::size_t h = 1; h <= t.m; ++h) {
    if (t.group_begin[h] == t.group_begin[h + 1]) continue;
    for (std::size_t k = 0; k <= n; ++k) {
      const double* c = coef + (k * t.m + (h - 1)) * tile;
      const double* weight = t.weight + k * t.num_points;
      const unsigned char* live = t.live + k * t.num_points;
      for (std::size_t slot = t.group_begin[h]; slot < t.group_begin[h + 1];
           ++slot) {
        if (live[slot] == 0) continue;
        const double w = weight[slot];
        double* acc = t.exceed + slot * t.stride + first;
        for (std::size_t j = 0; j < count; ++j) acc[j] += w * c[j];
      }
    }
  }
}

/// A value in [-1, 1) scaled by 2^e, e in [-20, 20]: a fused multiply-add
/// or any other order rounds such sums differently.
double spread_value(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-20, 20);
  return std::ldexp(unit(rng), exponent(rng));
}

/// Every level n <= 12 of random Bernstein tables over tiles of 1-33
/// states (whole four-lane vectors and remainders, first > 0), run
/// through `width` and through the reference: the sums must agree bit
/// for bit after every level.
void expect_bernstein_variant_matches_reference(LaneWidth width) {
  constexpr std::size_t kLevels = 12;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t m = 1 + rng() % 4;
    const std::size_t num_points = 1 + rng() % 9;
    // Group h* of each point: points may skip intervals, leaving empty
    // groups.
    std::vector<std::size_t> group_begin(m + 2, 0);
    for (std::size_t pt = 0; pt < num_points; ++pt)
      ++group_begin[1 + rng() % m + 1];
    for (std::size_t h = 1; h <= m + 1; ++h)
      group_begin[h] += group_begin[h - 1];
    for (std::size_t count : {1, 3, 4, 7, 16, 33}) {
      const std::size_t tile = count + rng() % 3;
      const std::size_t first = rng() % 5;
      const std::size_t stride = first + count + rng() % 3;
      std::vector<double> weight((kLevels + 1) * num_points);
      std::vector<unsigned char> live(weight.size());
      std::vector<double> coef((kLevels + 1) * m * tile);
      std::vector<double> got(num_points * stride);
      for (double& v : got) v = spread_value(rng);
      std::vector<double> want = got;
      const BernsteinTerms tables{m,           group_begin.data(),
                                  num_points,  weight.data(),
                                  live.data(),  got.data(),
                                  stride};
      BernsteinTerms reference = tables;
      reference.exceed = want.data();
      for (std::size_t n = 0; n <= kLevels; ++n) {
        for (double& v : weight) v = spread_value(rng);
        for (unsigned char& l : live) l = rng() % 4 != 0 ? 1 : 0;
        for (double& v : coef) v = spread_value(rng);
        add_bernstein_sums(tables, n, coef.data(), tile, first, count, width);
        reference_bernstein_sums(reference, n, coef.data(), tile, first,
                                 count);
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0)
            << "seed " << seed << ", " << count << " states, level " << n
            << (width == LaneWidth::avx2 ? ", avx2" : ", base");
      }
    }
  }
}

TEST(BernsteinSums, BaseVariantMatchesLoopBitwise) {
  expect_bernstein_variant_matches_reference(LaneWidth::base);
}

TEST(BernsteinSums, Avx2VariantMatchesLoopBitwise) {
  if (!lane_width_available(LaneWidth::avx2))
    GTEST_SKIP() << "no AVX2 lane variant on this build or CPU";
  expect_bernstein_variant_matches_reference(LaneWidth::avx2);
}

TEST(LaneWidths, SimdIsaNamesTheDispatchedWidth) {
  EXPECT_TRUE(lane_width_available(LaneWidth::base));
#if !defined(CSRL_SIMD_ENABLED)
  EXPECT_EQ(lane_width(), LaneWidth::base);
  EXPECT_STREQ(simd_isa(), "scalar");
#elif defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  EXPECT_EQ(lane_width(), avx2 ? LaneWidth::avx2 : LaneWidth::base);
  EXPECT_EQ(lane_width_available(LaneWidth::avx2), avx2);
  EXPECT_STREQ(simd_isa(), avx2 ? "avx2" : "sse2");
#else
  EXPECT_EQ(lane_width(), LaneWidth::base);
  EXPECT_FALSE(lane_width_available(LaneWidth::avx2));
#endif
}

}  // namespace
}  // namespace csrl
