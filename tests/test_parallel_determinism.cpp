// Determinism of the parallel execution layer: every engine must produce
// bit-identical results at 1 and N threads.  The parallel kernels only
// repartition work whose per-element arithmetic is fixed (row gathers,
// per-state sweeps, max-reductions), so this holds exactly — not merely
// within tolerance — and these tests assert it with memcmp.
//
// Labelled `tsan` in tests/CMakeLists.txt: under -DCSRL_SANITIZE=thread
// (`ctest -L tsan`) they double as race-detection workloads for the pool,
// the SpMV kernels and all three engine sweeps.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/engines/discretisation_engine.hpp"
#include "core/engines/erlang_engine.hpp"
#include "core/engines/sericola_engine.hpp"
#include "core/options.hpp"
#include "final_state_oracle.hpp"
#include "models/adhoc.hpp"
#include "models/cluster.hpp"
#include "models/synthetic.hpp"
#include "util/state_set.hpp"
#include "util/thread_pool.hpp"

namespace csrl {
namespace {

constexpr std::size_t kManyThreads = 4;

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what << ": results differ between 1 and " << kManyThreads
      << " threads";
}

/// Evaluate `compute` at 1 thread and at kManyThreads and require
/// bit-identical output.  Restores a 1-thread pool afterwards so other
/// tests see a deterministic environment.
template <typename Fn>
void check_thread_invariance(Fn compute, const char* what) {
  ThreadPool::set_global_threads(1);
  const std::vector<double> serial = compute();
  ThreadPool::set_global_threads(kManyThreads);
  const std::vector<double> parallel = compute();
  ThreadPool::set_global_threads(1);
  expect_bitwise_equal(serial, parallel, what);
}

/// A synthetic model big enough to cross the parallel thresholds of the
/// SpMV kernels (nnz >= 2^14) and of the Erlang engine's phase-lane
/// kernel (2^14 lane terms).
Mrm big_synthetic() { return random_mrm(11, 4000, 0.002, 2.0, 3); }

Mrm small_cluster() {
  ClusterParams params;
  params.workstations_per_side = 12;
  params.premium_threshold = 9;
  return build_cluster_mrm(params);
}

StateSet last_states(const Mrm& model, std::size_t count) {
  StateSet target(model.num_states());
  for (std::size_t s = model.num_states() - count; s < model.num_states(); ++s)
    target.insert(s);
  return target;
}

TEST(ParallelDeterminism, SericolaAllStartsSynthetic) {
  const Mrm model = big_synthetic();
  const double t = 0.6;
  const double r = 0.4 * model.max_reward() * t;
  const StateSet target = last_states(model, 50);
  const SericolaEngine engine(1e-6);
  check_thread_invariance(
      [&] { return engine.joint_probability_all_starts(model, t, r, target); },
      "sericola all-starts on random_mrm(4000)");
}

TEST(ParallelDeterminism, SericolaAllStartsSpansSeveralTiles) {
  // The Sericola level pass splits the states into tiles of at most 1024
  // states; 12 000 states make at least twelve tiles, so the level loop
  // really spreads over workers at 4 threads.
  const Mrm model = random_mrm(29, 12000, 0.0004, 2.0, 3);
  const double t = 0.2;
  const double r = 0.4 * model.max_reward() * t;
  const StateSet target = last_states(model, 60);
  const SericolaEngine engine(1e-6);
  check_thread_invariance(
      [&] { return engine.joint_probability_all_starts(model, t, r, target); },
      "sericola all-starts on random_mrm(12000)");
}

TEST(ParallelDeterminism, SericolaAllStartsCluster) {
  const Mrm model = small_cluster();
  const double t = 1.0;
  const double r = 0.5 * model.max_reward() * t;
  const StateSet target = last_states(model, 10);
  const SericolaEngine engine(1e-6);
  check_thread_invariance(
      [&] { return engine.joint_probability_all_starts(model, t, r, target); },
      "sericola all-starts on cluster");
}

TEST(ParallelDeterminism, SericolaJointDistributionSmall) {
  // The per-final-state form is one all-starts pass per final state, so
  // assert it on the paper's reduced model where it is cheap.
  const Mrm model = build_q3_reduced_mrm();
  const SericolaEngine engine(1e-8);
  check_thread_invariance(
      [&] {
        return oracle::per_final_state(engine, model, kTimeBoundHours,
                                       kRewardBoundMah);
      },
      "sericola joint distribution on adhoc Q3");
}

TEST(ParallelDeterminism, ErlangSynthetic) {
  const Mrm model = big_synthetic();
  const double t = 0.5;
  const double r = 0.4 * model.max_reward() * t;
  const StateSet target = last_states(model, 50);
  const ErlangEngine engine(16);
  check_thread_invariance(
      [&] { return engine.joint_probability_all_starts(model, t, r, target); },
      "erlang-16 all-starts on random_mrm(4000)");
}

TEST(ParallelDeterminism, ErlangCluster) {
  const Mrm model = small_cluster();
  const double t = 1.0;
  const double r = 0.5 * model.max_reward() * t;
  const StateSet target = last_states(model, 10);
  const ErlangEngine engine(8);
  check_thread_invariance(
      [&] { return engine.joint_probability_all_starts(model, t, r, target); },
      "erlang-8 all-starts on cluster");
}

TEST(ParallelDeterminism, DiscretisationSynthetic) {
  const Mrm model = big_synthetic();
  const double d = 1.0 / 32.0;
  const StateSet target = last_states(model, 50);
  const DiscretisationEngine engine(d);
  check_thread_invariance(
      [&] {
        return engine.joint_probability_all_starts(model, 0.5, 1.0, target);
      },
      "discretisation all-starts on random_mrm(4000)");
}

TEST(ParallelDeterminism, DiscretisationCluster) {
  const Mrm model = small_cluster();
  // The grid needs E(s)*d < 1; the cluster's repair rates push E(s) well
  // above 8, so derive the step from the model.
  double d = 1.0;
  while (model.chain().max_exit_rate() * d >= 0.9) d /= 2.0;
  const DiscretisationEngine engine(d);
  const double t = 32.0 * d;
  const double r = 0.5 * model.max_reward() * t;
  const StateSet target = last_states(model, 10);
  check_thread_invariance(
      [&] { return engine.joint_probability_all_starts(model, t, r, target); },
      "discretisation all-starts on cluster");
}

// ---------------------------------------------------------------------------
// Batched lattices (core/batch.hpp): at every thread count, the batched
// grid must equal the point-by-point loop bit for bit — the two axes of
// determinism (batching and parallelism) must compose.
// ---------------------------------------------------------------------------

std::vector<double> flatten(const std::vector<std::vector<double>>& grid) {
  std::vector<double> flat;
  for (const std::vector<double>& point : grid)
    flat.insert(flat.end(), point.begin(), point.end());
  return flat;
}

TEST(ParallelDeterminism, SericolaGridEqualsPointLoopAtBothThreadCounts) {
  const Mrm model = small_cluster();
  const double t = 1.0;
  const std::vector<double> times{0.5 * t, t};
  const std::vector<double> rewards{0.3 * model.max_reward() * t,
                                    0.6 * model.max_reward() * t};
  const StateSet target = last_states(model, 10);
  const SericolaEngine engine(1e-6);

  std::vector<double> serial_batched;
  for (const std::size_t threads : {std::size_t{1}, kManyThreads}) {
    ThreadPool::set_global_threads(threads);
    const std::vector<double> batched = flatten(
        engine.joint_probability_all_starts_grid(model, times, rewards,
                                                 target));
    const std::vector<double> looped = flatten(
        joint_grid_reference(engine, model, times, rewards, target));
    expect_bitwise_equal(batched, looped,
                         "sericola lattice vs point loop on cluster");
    if (threads == 1)
      serial_batched = batched;
    else
      expect_bitwise_equal(serial_batched, batched,
                           "sericola lattice across thread counts");
  }
  ThreadPool::set_global_threads(1);
}

TEST(ParallelDeterminism, ErlangGridEqualsPointLoopAtBothThreadCounts) {
  const Mrm model = big_synthetic();
  const double t = 0.5;
  const std::vector<double> times{0.5 * t, t};
  const std::vector<double> rewards{0.4 * model.max_reward() * t};
  const StateSet target = last_states(model, 50);
  const ErlangEngine engine(8);

  std::vector<double> serial_batched;
  for (const std::size_t threads : {std::size_t{1}, kManyThreads}) {
    ThreadPool::set_global_threads(threads);
    const std::vector<double> batched = flatten(
        engine.joint_probability_all_starts_grid(model, times, rewards,
                                                 target));
    const std::vector<double> looped = flatten(
        joint_grid_reference(engine, model, times, rewards, target));
    expect_bitwise_equal(batched, looped,
                         "erlang-8 lattice vs point loop on random_mrm(4000)");
    if (threads == 1)
      serial_batched = batched;
    else
      expect_bitwise_equal(serial_batched, batched,
                           "erlang-8 lattice across thread counts");
  }
  ThreadPool::set_global_threads(1);
}

TEST(ParallelDeterminism,
     DiscretisationAllStartsGridEqualsPointWrapperAtBothThreadCounts) {
  const Mrm model = small_cluster();
  double d = 1.0;
  while (model.chain().max_exit_rate() * d >= 0.9) d /= 2.0;
  const DiscretisationEngine engine(d);
  const std::vector<double> times{16.0 * d, 32.0 * d};
  const double r_hi = 0.5 * model.max_reward() * 32.0 * d;
  const std::vector<double> rewards{std::floor(0.5 * r_hi / d) * d,
                                    std::floor(r_hi / d) * d};
  const StateSet target = last_states(model, 10);

  std::vector<double> serial_batched;
  for (const std::size_t threads : {std::size_t{1}, kManyThreads}) {
    ThreadPool::set_global_threads(threads);
    const std::vector<double> batched = flatten(
        engine.joint_probability_all_starts_grid(model, times, rewards,
                                                 target));
    const std::vector<double> looped = flatten(
        joint_grid_reference(engine, model, times, rewards, target));
    expect_bitwise_equal(batched, looped,
                         "discretisation all-starts lattice vs 1 x 1 "
                         "wrapper on cluster");
    if (threads == 1)
      serial_batched = batched;
    else
      expect_bitwise_equal(serial_batched, batched,
                           "discretisation all-starts lattice across thread "
                           "counts");
  }
  ThreadPool::set_global_threads(1);
}

TEST(ParallelDeterminism, MakeEnginePlumbsThreadCount) {
  // options.num_threads must reach the shared pool, and an engine made at
  // N threads must agree bitwise with one made at 1 thread.
  const Mrm model = big_synthetic();
  const double t = 0.5;
  const double r = 0.4 * model.max_reward() * t;

  CheckOptions serial_options;
  serial_options.engine = P3Engine::kErlang;
  serial_options.erlang_phases = 8;
  serial_options.num_threads = 1;
  const auto serial_engine = make_engine(serial_options);
  EXPECT_EQ(ThreadPool::global().num_threads(), 1u);
  const StateSet target = last_states(model, 50);
  const std::vector<double> serial =
      serial_engine->joint_probability_all_starts(model, t, r, target);

  CheckOptions parallel_options = serial_options;
  parallel_options.num_threads = kManyThreads;
  const auto parallel_engine = make_engine(parallel_options);
  EXPECT_EQ(ThreadPool::global().num_threads(), kManyThreads);
  const std::vector<double> parallel =
      parallel_engine->joint_probability_all_starts(model, t, r, target);

  ThreadPool::set_global_threads(1);
  expect_bitwise_equal(serial, parallel, "make_engine(erlang) plumbing");
}

}  // namespace
}  // namespace csrl
