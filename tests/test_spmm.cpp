// The blocked multi-RHS SpMM layer (matrix/spmm.* + the multi-start
// uniformisation entry points and engine grid paths that ride it):
// differential tests of all four block kernels against looped one-RHS
// runs, the multi-start transients against per-start batches, engine
// grids across widths, the allocation-free-loop contract and the
// rhs_block resolution rules.
//
// Labelled `tsan` in tests/CMakeLists.txt: the differential sweeps run
// every kernel at 1 and 4 threads, so under -DCSRL_SANITIZE=thread they
// double as a race-detection workload for the chunked block kernels.
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
#include "matrix/support.hpp"
#include "models/synthetic.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/state_set.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

namespace csrl {
namespace {

constexpr std::size_t kWidths[] = {1, 2, 4, 8};

void expect_bitwise_equal(std::span<const double> a, std::span<const double> b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what << ": blocked result differs from the one-RHS reference";
}

// Deterministic lane vectors with a sprinkling of exact zeros, so the
// left kernels' per-lane x == 0 skip branch is genuinely exercised.
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

// -- Plain kernels: each lane bitwise equals its one-RHS product ----------

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
        auto out = unpacked(y, width, n);
        std::vector<double> ref(n);
        for (std::size_t b = 0; b < width; ++b) {
          p.multiply(lanes[b], ref);
          expect_bitwise_equal(out[b], ref,
                               "multiply_block lane " + std::to_string(b));
        }

        p.multiply_left_block(x, y, width, width);
        out = unpacked(y, width, n);
        for (std::size_t b = 0; b < width; ++b) {
          p.multiply_left(lanes[b], ref);
          expect_bitwise_equal(
              out[b], ref, "multiply_left_block lane " + std::to_string(b));
        }
      }
    }
    ThreadPool::set_global_threads(1);
  }
}

// -- Fused kernels: product, block pendings and per-lane diffs ------------

TEST(SpmmKernels, FusedBlockMatchesLoopedFusedAcrossSeedsAndThreads) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Mrm model = random_mrm(seed, 96, 0.03);
    const CsrMatrix& p = model.rates();
    const std::size_t n = model.num_states();
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ThreadPool::set_global_threads(threads);
      for (std::size_t width : kWidths) {
        const auto lanes = make_lanes(width, n, seed);
        for (const bool left : {false, true}) {
          const std::vector<double> x = packed(lanes, n);
          std::vector<double> y(n * width, -1.0);

          // Two running-sum accumulators with distinct per-lane weights,
          // both pre-seeded so the += epilogue has prior state to keep.
          std::vector<double> weights0(width), weights1(width);
          for (std::size_t b = 0; b < width; ++b) {
            weights0[b] = 0.25 + 0.5 * static_cast<double>(b);
            weights1[b] = 1.0 / (1.0 + static_cast<double>(b));
          }
          const auto acc_lanes0 = make_lanes(width, n, seed + 101);
          const auto acc_lanes1 = make_lanes(width, n, seed + 202);
          std::vector<double> acc0 = packed(acc_lanes0, n);
          std::vector<double> acc1 = packed(acc_lanes1, n);
          const FusedBlockAxpy pendings[2] = {
              {weights0.data(), acc0.data(), width, width},
              {weights1.data(), acc1.data(), width, width}};
          std::vector<double> diffs(width, -1.0);
          if (left)
            p.multiply_left_block_fused(x, y, width, width, pendings, diffs);
          else
            p.multiply_block_fused(x, y, width, width, pendings, diffs);

          const auto out = unpacked(y, width, n);
          const auto out_acc0 = unpacked(acc0, width, n);
          const auto out_acc1 = unpacked(acc1, width, n);
          for (std::size_t b = 0; b < width; ++b) {
            std::vector<double> ref(n);
            std::vector<double> ref_acc0 = acc_lanes0[b];
            std::vector<double> ref_acc1 = acc_lanes1[b];
            const FusedAxpy scalar[2] = {{weights0[b], ref_acc0.data()},
                                         {weights1[b], ref_acc1.data()}};
            const double ref_diff =
                left ? p.multiply_left_fused(lanes[b], ref, scalar, true)
                     : p.multiply_fused(lanes[b], ref, scalar, true);
            const std::string what = (left ? "left " : "right ") +
                                     std::string("fused lane ") +
                                     std::to_string(b);
            expect_bitwise_equal(out[b], ref, what);
            expect_bitwise_equal(out_acc0[b], ref_acc0, what + " pending 0");
            expect_bitwise_equal(out_acc1[b], ref_acc1, what + " pending 1");
            EXPECT_EQ(diffs[b], ref_diff) << what << " diff";
          }
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
  p.multiply_left_block(x, y, 4, 4);
  const obs::MetricsSnapshot delta =
      obs::metrics_delta(before, obs::snapshot_metrics());
#ifdef CSRL_OBS_DISABLED
  EXPECT_EQ(delta.counter("matrix/spmm/block_products"), 0u);
#else
  EXPECT_EQ(delta.counter("matrix/spmm/block_products"), 2u);
  EXPECT_EQ(delta.counter("matrix/spmm/columns"), 8u);
  EXPECT_EQ(delta.counter("spmv/multiply"), 4u);
  EXPECT_EQ(delta.counter("spmv/multiply_left"), 4u);
#endif
}

// -- Multi-start transients: lanes bitwise equal per-start batches --------

TEST(TransientMulti, BitwiseEqualsPerStartBatchesAcrossWidths) {
  const std::vector<double> times{0.4, 1.1};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Mrm model = random_mrm(seed, 80, 0.04);
    const Ctmc& chain = model.chain();
    const std::size_t n = model.num_states();
    // Five starts: a width of 4 leaves a remainder group of one lane.
    std::vector<std::vector<double>> starts;
    for (std::size_t j = 0; j < 5; ++j) {
      std::vector<double> v(n, 0.0);
      v[(j * 17) % n] = 1.0;
      starts.push_back(std::move(v));
    }
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ThreadPool::set_global_threads(threads);
      for (std::size_t width : kWidths) {
        TransientOptions options;
        options.rhs_block = width;
        const auto fwd =
            transient_distribution_multi(chain, starts, times, options);
        const auto bwd =
            transient_backward_multi(chain, starts, times, options);
        ASSERT_EQ(fwd.size(), starts.size());
        ASSERT_EQ(bwd.size(), starts.size());
        for (std::size_t s = 0; s < starts.size(); ++s) {
          const auto ref_fwd =
              transient_distribution_batch(chain, starts[s], times, options);
          const auto ref_bwd =
              transient_backward_batch(chain, starts[s], times, options);
          for (std::size_t i = 0; i < times.size(); ++i) {
            expect_bitwise_equal(fwd[s][i], ref_fwd[i],
                                 "forward multi start " + std::to_string(s));
            expect_bitwise_equal(bwd[s][i], ref_bwd[i],
                                 "backward multi start " + std::to_string(s));
          }
        }
      }
    }
    ThreadPool::set_global_threads(1);
  }
}

TEST(TransientMulti, PerLaneSteadyStateDetectionKeepsBits) {
  // Long horizons drive the iterates stationary; different unit starts
  // converge at different steps, so lanes go dormant one by one while
  // the rest of the block keeps iterating.
  const Mrm model = birth_death_mrm(48, 2.0, 3.0);
  const Ctmc& chain = model.chain();
  const std::size_t n = model.num_states();
  const std::vector<double> times{0.5, 8.0, 40.0};
  std::vector<std::vector<double>> starts;
  for (std::size_t j : {std::size_t{0}, n / 2, n - 1}) {
    std::vector<double> v(n, 0.0);
    v[j] = 1.0;
    starts.push_back(std::move(v));
  }
  for (std::size_t width : kWidths) {
    TransientOptions options;
    options.rhs_block = width;
    const auto multi =
        transient_distribution_multi(chain, starts, times, options);
    for (std::size_t s = 0; s < starts.size(); ++s) {
      const auto ref =
          transient_distribution_batch(chain, starts[s], times, options);
      for (std::size_t i = 0; i < times.size(); ++i)
        expect_bitwise_equal(multi[s][i], ref[i],
                             "steady-state lane " + std::to_string(s));
    }
  }
}

TEST(TransientMulti, FallsBackPerStartUnderSupportTruncation) {
  // support_epsilon > 0 makes the active path genuinely lossy, so the
  // multi entry points must run per-start (one frontier per run) and
  // still match the single-start batches exactly.
  const Mrm model = birth_death_mrm(48, 2.0, 3.0);
  const Ctmc& chain = model.chain();
  const std::size_t n = model.num_states();
  std::vector<std::vector<double>> starts(2, std::vector<double>(n, 0.0));
  starts[0][0] = 1.0;
  starts[1][n - 1] = 1.0;
  const std::vector<double> times{1.0};
  TransientOptions options;
  options.rhs_block = 8;
  options.support_epsilon = 1e-12;
  const auto multi =
      transient_distribution_multi(chain, starts, times, options);
  for (std::size_t s = 0; s < starts.size(); ++s) {
    const auto ref =
        transient_distribution_batch(chain, starts[s], times, options);
    expect_bitwise_equal(multi[s][0], ref[0], "lossy fallback");
  }
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

// -- Allocation-free loops on a warmed arena ------------------------------

TEST(WorkspaceArena, MultiStartLoopIsAllocFreeWhenWarmed) {
  const Mrm model = birth_death_mrm(64, 2.0, 3.0);
  const Ctmc& chain = model.chain();
  const std::size_t n = model.num_states();
  std::vector<std::vector<double>> starts(4, std::vector<double>(n, 0.0));
  for (std::size_t j = 0; j < starts.size(); ++j) starts[j][j * 16] = 1.0;
  const std::vector<double> times{0.5, 1.0};

  obs::ScopedRecording recording;
  Workspace workspace;
  TransientOptions options;
  options.rhs_block = 4;
  options.workspace = &workspace;

  (void)transient_distribution_multi(chain, starts, times, options);
  const obs::MetricsSnapshot warm_before = obs::snapshot_metrics();
  (void)transient_distribution_multi(chain, starts, times, options);
  (void)transient_backward_multi(chain, starts, times, options);
  EXPECT_EQ(obs::metrics_delta(warm_before, obs::snapshot_metrics())
                .counter("uniformisation/allocs_in_loop"),
            0u)
      << "warmed arena still hit the heap inside the blocked series loop";
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
