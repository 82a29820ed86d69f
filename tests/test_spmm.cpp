// The blocked multi-RHS SpMM layer (matrix/spmm.* and the engine grid
// paths that ride it): the block kernel against looped one-RHS runs,
// engine grids across widths and the rhs_block resolution rules.
//
// Labelled `tsan` in tests/CMakeLists.txt: the differential sweep runs
// the kernel at 1 and 4 threads, so under -DCSRL_SANITIZE=thread it
// doubles as a race-detection workload for the chunked block kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/engines/erlang_engine.hpp"
#include "core/engines/sericola_engine.hpp"
#include "ctmc/uniformisation.hpp"
#include "matrix/csr.hpp"
#include "matrix/spmm.hpp"
#include "models/synthetic.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/state_set.hpp"
#include "util/thread_pool.hpp"

namespace csrl {
namespace {

constexpr std::size_t kWidths[] = {1, 2, 4, 8};

void expect_bitwise_equal(std::span<const double> a, std::span<const double> b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what << ": blocked result differs from the one-RHS reference";
}

// Deterministic lane vectors with a sprinkling of exact zeros.
std::vector<std::vector<double>> make_lanes(std::size_t width, std::size_t n,
                                            std::uint64_t seed) {
  std::vector<std::vector<double>> lanes(width, std::vector<double>(n));
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + 1;
  for (std::vector<double>& lane : lanes)
    for (double& v : lane) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      const std::uint64_t bits = s >> 33;
      v = (bits % 7 == 0) ? 0.0 : static_cast<double>(bits % 1000) / 997.0;
    }
  return lanes;
}

std::vector<double> packed(const std::vector<std::vector<double>>& lanes,
                           std::size_t n) {
  std::vector<const double*> cols;
  for (const std::vector<double>& lane : lanes) cols.push_back(lane.data());
  std::vector<double> block(n * lanes.size());
  pack_block(cols, block, 0, n, lanes.size());
  return block;
}

std::vector<std::vector<double>> unpacked(std::span<const double> block,
                                          std::size_t width, std::size_t n) {
  std::vector<std::vector<double>> lanes(width, std::vector<double>(n));
  std::vector<double*> cols;
  for (std::vector<double>& lane : lanes) cols.push_back(lane.data());
  unpack_block(block, cols, 0, n, width);
  return lanes;
}

// -- The kernel: each lane bitwise equals its one-RHS product -------------

TEST(SpmmKernels, BlockMatchesLoopedOneRhsAcrossSeedsAndThreads) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Mrm model = random_mrm(seed, 96, 0.03);
    const CsrMatrix& p = model.rates();
    const std::size_t n = model.num_states();
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ThreadPool::set_global_threads(threads);
      for (std::size_t width : kWidths) {
        const auto lanes = make_lanes(width, n, seed);
        const std::vector<double> x = packed(lanes, n);
        std::vector<double> y(n * width, -1.0);

        p.multiply_block(x, y, width, width);
        const auto out = unpacked(y, width, n);
        std::vector<double> ref(n);
        for (std::size_t b = 0; b < width; ++b) {
          p.multiply(lanes[b], ref);
          expect_bitwise_equal(out[b], ref,
                               "multiply_block lane " + std::to_string(b));
        }
      }
    }
    ThreadPool::set_global_threads(1);
  }
}

TEST(SpmmKernels, RejectsBadShapes) {
  const Mrm model = random_mrm(1, 16, 0.1);
  const CsrMatrix& p = model.rates();
  std::vector<double> x(16 * 4), y(16 * 4);
  EXPECT_THROW(p.multiply_block(x, y, 0, 4), ModelError);
  EXPECT_THROW(p.multiply_block(x, y, kMaxRhsBlock + 1, kMaxRhsBlock + 1),
               ModelError);
  EXPECT_THROW(p.multiply_block(x, y, 4, 2), ModelError);  // stride < width
  EXPECT_THROW(p.multiply_block(x, y, 8, 8), ModelError);  // undersized block
}

TEST(SpmmKernels, CountsBlockProductsAndColumns) {
  const Mrm model = random_mrm(2, 32, 0.1);
  const CsrMatrix& p = model.rates();
  std::vector<double> x(32 * 4, 0.5), y(32 * 4);
  obs::ScopedRecording recording;
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  p.multiply_block(x, y, 4, 4);
  p.multiply_block(x, y, 2, 4);
  const obs::MetricsSnapshot delta =
      obs::metrics_delta(before, obs::snapshot_metrics());
#ifdef CSRL_OBS_DISABLED
  EXPECT_EQ(delta.counter("matrix/spmm/block_products"), 0u);
#else
  EXPECT_EQ(delta.counter("matrix/spmm/block_products"), 2u);
  EXPECT_EQ(delta.counter("matrix/spmm/columns"), 6u);
  EXPECT_EQ(delta.counter("spmv/multiply"), 6u);
  EXPECT_EQ(delta.counter("spmv/multiply_left"), 0u);
#endif
}

// -- Engine grids: rhs_block is bitwise invisible -------------------------

TEST(EngineGrids, SericolaGridBitwiseInvariantAcrossWidths) {
  const Mrm model = random_mrm(3, 60, 0.05);
  StateSet target(model.num_states());
  for (std::size_t s = 0; s < model.num_states(); s += 5) target.insert(s);
  const std::vector<double> times{0.3, 0.5};
  const std::vector<double> rewards{0.2, 0.8};
  const SericolaEngine one_rhs(1e-7, nullptr, 1);
  const auto ref = one_rhs.joint_probability_all_starts_grid(model, times,
                                                             rewards, target);
  for (std::size_t width : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const SericolaEngine blocked(1e-7, nullptr, width);
    const auto grid = blocked.joint_probability_all_starts_grid(model, times,
                                                                rewards,
                                                                target);
    ASSERT_EQ(grid.size(), ref.size());
    for (std::size_t g = 0; g < ref.size(); ++g)
      expect_bitwise_equal(grid[g], ref[g],
                           "sericola width " + std::to_string(width));
  }
}

TEST(EngineGrids, ErlangGridBitwiseInvariantAcrossWidths) {
  const Mrm model = random_mrm(5, 40, 0.06);
  StateSet target(model.num_states());
  for (std::size_t s = 0; s < model.num_states(); s += 4) target.insert(s);
  const std::vector<double> times{0.3, 0.5};
  const std::vector<double> rewards{0.2, 0.8};
  TransientOptions one;
  one.rhs_block = 1;
  const ErlangEngine one_rhs(8, one);
  const auto ref = one_rhs.joint_probability_all_starts_grid(model, times,
                                                             rewards, target);
  for (std::size_t width : {std::size_t{4}, std::size_t{8}}) {
    TransientOptions blocked_options;
    blocked_options.rhs_block = width;
    const ErlangEngine blocked(8, blocked_options);
    const auto grid = blocked.joint_probability_all_starts_grid(model, times,
                                                                rewards,
                                                                target);
    ASSERT_EQ(grid.size(), ref.size());
    for (std::size_t g = 0; g < ref.size(); ++g)
      expect_bitwise_equal(grid[g], ref[g],
                           "erlang width " + std::to_string(width));
  }
}

// -- rhs_block resolution -------------------------------------------------

TEST(ResolveRhsBlock, ExplicitValuesAndEnvironmentOverride) {
  ::unsetenv("CSRL_RHS_BLOCK");
  EXPECT_EQ(resolve_rhs_block(0), kDefaultRhsBlock);
  EXPECT_EQ(resolve_rhs_block(1), 1u);
  EXPECT_EQ(resolve_rhs_block(5), 5u);
  EXPECT_EQ(resolve_rhs_block(kMaxRhsBlock), kMaxRhsBlock);
  EXPECT_THROW(resolve_rhs_block(kMaxRhsBlock + 1), ModelError);

  ::setenv("CSRL_RHS_BLOCK", "4", 1);
  EXPECT_EQ(resolve_rhs_block(0), 4u);
  EXPECT_EQ(resolve_rhs_block(2), 2u) << "explicit width must beat the env";

  for (const char* bad : {"0", "65", "garbage", "8x", "-1"}) {
    ::setenv("CSRL_RHS_BLOCK", bad, 1);
    EXPECT_THROW(resolve_rhs_block(0), ModelError) << bad;
  }
  ::setenv("CSRL_RHS_BLOCK", "", 1);
  EXPECT_EQ(resolve_rhs_block(0), kDefaultRhsBlock)
      << "empty env value falls through to the default";
  ::unsetenv("CSRL_RHS_BLOCK");
}

}  // namespace
}  // namespace csrl
