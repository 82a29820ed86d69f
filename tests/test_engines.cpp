#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/engines/discretisation_engine.hpp"
#include "core/engines/erlang_engine.hpp"
#include "core/engines/sericola_engine.hpp"
#include "ctmc/uniformisation.hpp"
#include "final_state_oracle.hpp"
#include "sericola_one_column_oracle.hpp"
#include "models/adhoc.hpp"
#include "models/synthetic.hpp"
#include "obs/obs.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/state_set.hpp"
#include "util/thread_pool.hpp"

namespace csrl {
namespace {

/// 0 (reward 1) -> 1 (absorbing, reward 0) at rate a.
/// Closed form: Pr{Y_t <= r, X_t = 1} = 1 - e^{-a r} for r < t, and
/// Pr{Y_t <= r, X_t = 0} = 0 for r < t.
Mrm hit_model(double a) {
  CsrBuilder b(2, 2);
  b.add(0, 1, a);
  return Mrm(Ctmc(b.build()), {1.0, 0.0}, Labelling(2), 0);
}

StateSet single(std::size_t n, std::size_t s) {
  StateSet set(n);
  set.insert(s);
  return set;
}

TEST(SericolaEngine, MatchesClosedForm) {
  const double a = 1.0, t = 2.0, r = 1.0;
  const Mrm m = hit_model(a);
  const SericolaEngine engine(1e-12);
  const auto h = engine.joint_probability_all_starts(m, t, r, single(2, 1));
  EXPECT_NEAR(h[0], 1.0 - std::exp(-a * r), 1e-10);
  EXPECT_NEAR(h[1], 1.0, 1e-12);  // already there, earning nothing

  const auto h0 = engine.joint_probability_all_starts(m, t, r, single(2, 0));
  EXPECT_NEAR(h0[0], 0.0, 1e-10);  // still in 0 at t implies Y_t = t > r
}

TEST(SericolaEngine, ComplementIdentityAgainstTransient) {
  // Pr{Y_t<=r, X_t in T} + Pr{Y_t>r, X_t in T} = Pr{X_t in T}: with target
  // = everything the engine must reproduce exactly Pr{Y_t <= r}.  For the
  // hit model, Y_t <= r iff the jump happened before r (or never earns
  // after), so Pr{Y_t <= r} = 1 - e^{-a r} for r < t.
  const double a = 0.7, t = 3.0, r = 2.0;
  const Mrm m = hit_model(a);
  const SericolaEngine engine(1e-12);
  StateSet everything(2, /*filled=*/true);
  const auto h = engine.joint_probability_all_starts(m, t, r, everything);
  EXPECT_NEAR(h[0], 1.0 - std::exp(-a * r), 1e-10);
}

TEST(SericolaEngine, TruncationDepthGrowsWithPrecision) {
  const Mrm m = hit_model(2.0);
  EXPECT_LT(SericolaEngine(1e-2).truncation_depth(m, 10.0),
            SericolaEngine(1e-12).truncation_depth(m, 10.0));
}

TEST(SericolaEngine, InvalidEpsilonThrows) {
  EXPECT_THROW(SericolaEngine(0.0), ModelError);
  EXPECT_THROW(SericolaEngine(1.0), ModelError);
}

TEST(ErlangEngine, ConvergesToSericolaWithPhases) {
  const double a = 1.0, t = 2.0, r = 1.0;
  const Mrm m = hit_model(a);
  const double exact = 1.0 - std::exp(-a * r);
  double last_error = 1.0;
  for (std::size_t k : {4u, 32u, 256u}) {
    const ErlangEngine engine(k);
    const auto h = engine.joint_probability_all_starts(m, t, r, single(2, 1));
    const double error = std::abs(h[0] - exact);
    EXPECT_LT(error, last_error);
    last_error = error;
  }
  EXPECT_LT(last_error, 2e-3);
}

TEST(ErlangEngine, ZeroPhasesThrows) { EXPECT_THROW(ErlangEngine(0), ModelError); }

TEST(ErlangEngine, NameCarriesPhaseCount) {
  EXPECT_EQ(ErlangEngine(16).name(), "erlang-16");
}

TEST(DiscretisationEngine, ConvergesLinearlyInStep) {
  const double a = 1.0, t = 2.0, r = 1.0;
  const Mrm m = hit_model(a);
  const double exact = 1.0 - std::exp(-a * r);
  double last_error = 1.0;
  for (double d : {1.0 / 16, 1.0 / 64, 1.0 / 256}) {
    const DiscretisationEngine engine(d);
    const double error = std::abs(
        oracle::from_initial(engine, m, t, r, single(2, 1)) - exact);
    EXPECT_LT(error, last_error);
    last_error = error;
  }
  EXPECT_LT(last_error, 5e-3);
}

TEST(DiscretisationEngine, RequiresIntegerRewards) {
  CsrBuilder b(2, 2);
  b.add(0, 1, 1.0);
  const Mrm m(Ctmc(b.build()), {1.5, 0.0}, Labelling(2), 0);
  const DiscretisationEngine engine(1.0 / 16);
  EXPECT_THROW(
      (void)engine.joint_probability_all_starts(m, 2.0, 1.0, single(2, 1)),
      ModelError);
}

TEST(DiscretisationEngine, RequiresGridAlignedBounds) {
  const Mrm m = hit_model(1.0);
  const DiscretisationEngine engine(1.0 / 16);
  EXPECT_THROW(
      (void)engine.joint_probability_all_starts(m, 2.0, 1.03, single(2, 1)),
      ModelError);
}

TEST(DiscretisationEngine, RejectsTooCoarseStep) {
  const Mrm m = hit_model(20.0);  // exit rate 20 => need d < 1/20
  const DiscretisationEngine engine(1.0 / 16);
  EXPECT_THROW(
      (void)engine.joint_probability_all_starts(m, 2.0, 1.0, single(2, 1)),
      ModelError);
}

TEST(DiscretisationEngine, InvalidStepThrows) {
  EXPECT_THROW(DiscretisationEngine(0.0), ModelError);
  EXPECT_THROW(DiscretisationEngine(-0.5), ModelError);
}

// --- shared trivial cases (exercised through one engine each) ------------

TEST(EngineTrivia, TimeZeroGivesInitialDistribution) {
  const Mrm m = hit_model(1.0);
  const SericolaEngine engine(1e-9);
  EXPECT_EQ(oracle::per_final_state(engine, m, 0.0, 5.0),
            (std::vector<double>{1.0, 0.0}));
}

TEST(EngineTrivia, LooseRewardBoundIsPlainTransient) {
  const double a = 1.0, t = 1.0;
  const Mrm m = hit_model(a);
  const ErlangEngine engine(8);  // 8 phases would be crude if it mattered
  // r >= max_reward * t = 1: the bound cannot bind, the answer is exact.
  EXPECT_NEAR(oracle::from_initial(engine, m, t, 1.0, single(2, 1)),
              1.0 - std::exp(-a * t), 1e-9);
}

TEST(EngineTrivia, ZeroRewardBoundFreezesPositiveRewardStates) {
  // 0 (reward 0) -> 1 (reward 1) -> 2 (reward 0, absorbing); with r = 0
  // only the paths that never left 0 keep Y_t = 0.
  CsrBuilder b(3, 3);
  b.add(0, 1, 2.0);
  b.add(1, 2, 1.0);
  const Mrm m(Ctmc(b.build()), {0.0, 1.0, 0.0}, Labelling(3), 0);
  const DiscretisationEngine engine(1.0 / 8);
  const std::vector<double> d = oracle::per_final_state(engine, m, 1.0, 0.0);
  EXPECT_NEAR(d[0], std::exp(-2.0), 1e-9);
  EXPECT_NEAR(d[1], 0.0, 1e-12);
  EXPECT_NEAR(d[2], 0.0, 1e-12);
}

TEST(EngineTrivia, NegativeBoundsThrow) {
  const Mrm m = hit_model(1.0);
  const SericolaEngine engine(1e-9);
  EXPECT_THROW(
      (void)engine.joint_probability_all_starts(m, -1.0, 1.0, single(2, 1)),
      ModelError);
  EXPECT_THROW(
      (void)engine.joint_probability_all_starts(m, 1.0, -1.0, single(2, 1)),
      ModelError);
}

TEST(EngineTrivia, AllStartsTrivialCases) {
  const Mrm m = hit_model(1.0);
  const SericolaEngine engine(1e-9);
  // t = 0: membership indicator.
  EXPECT_EQ(engine.joint_probability_all_starts(m, 0.0, 3.0, single(2, 1)),
            (std::vector<double>{0.0, 1.0}));
  // loose bound: plain reachability.
  const auto loose = engine.joint_probability_all_starts(m, 1.0, 5.0, single(2, 1));
  EXPECT_NEAR(loose[0], 1.0 - std::exp(-1.0), 1e-9);
}

TEST(EngineTrivia, LooseBoundCellsRunAtTheEngineAccuracy) {
  // A reward bound above rho_max * t cannot bind, so the cell is plain
  // transient analysis; it must run at the accuracy the engine was given,
  // not at the transient default (1e-10), whose answer differs here by
  // ~8e-12.
  const Mrm model = random_mrm(7, 200, 0.05);
  StateSet target(model.num_states());
  for (std::size_t s = 0; s < 20; ++s) target.insert(s);
  const double t = 3.0;
  const double r = model.max_reward() * t + 1.0;
  TransientOptions fine;
  fine.epsilon = 1e-13;
  const std::vector<double> expected =
      transient_reach(model.chain(), target, t, fine);
  ASSERT_NE(expected, transient_reach(model.chain(), target, t))
      << "the model no longer separates the two accuracies";
  EXPECT_EQ(SericolaEngine(1e-13).joint_probability_all_starts(model, t, r,
                                                                target),
            expected);
  EXPECT_EQ(ErlangEngine(8, fine).joint_probability_all_starts(model, t, r,
                                                               target),
            expected);
}

/// `base` with every `every`-th state (from `first` on) made absorbing with
/// reward 0: the success/fail shape of a Theorem-1 reduction, interleaved
/// with the recursion states in index order.
Mrm with_absorbing_zeros(const Mrm& base, std::size_t first,
                         std::size_t every) {
  const std::size_t n = base.num_states();
  CsrBuilder rates(n, n);
  std::vector<double> rewards = base.rewards();
  for (std::size_t s = 0; s < n; ++s) {
    if (s >= first && (s - first) % every == 0) {
      rewards[s] = 0.0;
      continue;
    }
    for (const CsrEntry& e : base.rates().row(s)) rates.add(s, e.col, e.value);
  }
  return Mrm(Ctmc(rates.build()), std::move(rewards), base.labelling(),
             base.initial_distribution());
}

// The engine's state-major lane layout against the one-column textbook
// recursion, bit for bit: many reward classes, several state tiles, the
// Q3 model (one tile, m = 3, so the lockstep high and low sweeps meet in
// the middle class), absorbing reward-0 states interleaved with the
// recursion states across several tiles, 1 and 4 threads.

TEST(SericolaEngine, GridMatchesOneColumnOracleBitwise) {
  const std::size_t threads = ThreadPool::global().num_threads();
  const Mrm tandem = tandem_queue_mrm(5, 5, 2.0, 2.5, 2.0);
  const Mrm random = random_mrm(3, 2500, 0.002);
  StateSet every_third(random.num_states());
  for (std::size_t s = 0; s < random.num_states(); s += 3)
    every_third.insert(s);
  const Mrm q3 = build_q3_reduced_mrm();
  const Mrm interleaved =
      with_absorbing_zeros(random_mrm(5, 1200, 0.004), 2, 7);
  StateSet every_fifth(interleaved.num_states());
  for (std::size_t s = 0; s < interleaved.num_states(); s += 5)
    every_fifth.insert(s);
  const struct {
    const Mrm& model;
    const StateSet& target;
    std::vector<double> times;
    std::vector<double> rewards;
  } cases[] = {
      {tandem, tandem.labelling().states_with("full2"), {2.0, 3.0},
       {2.5, 7.0, 13.0}},
      {random, every_third, {0.1, 0.2}, {0.05, 0.3}},
      // At t = 12 the three rewards fall in intervals 1, 2 and 3.
      {q3, single(5, 3), {12.0, 24.0}, {150.0, 600.0, 2000.0}},
      {interleaved, every_fifth, {0.5, 1.0}, {0.2, 0.7, 1.3}},
  };
  for (const auto& c : cases) {
    const auto oracle = oracle::sericola_one_column_grid(
        c.model, c.times, c.rewards, c.target, 1e-8);
    for (std::size_t t : {std::size_t{1}, std::size_t{4}}) {
      ThreadPool::set_global_threads(t);
      const auto grid = SericolaEngine(1e-8).joint_probability_all_starts_grid(
          c.model, c.times, c.rewards, c.target);
      ASSERT_EQ(grid.size(), oracle.size());
      for (std::size_t cell = 0; cell < grid.size(); ++cell)
        EXPECT_EQ(std::memcmp(grid[cell].data(), oracle[cell].data(),
                              grid[cell].size() * sizeof(double)),
                  0)
            << c.model.num_states() << " states, cell " << cell << ", " << t
            << " threads";
    }
  }

  // No recursion states at all: every state is absorbing with reward 0,
  // so every cell is trivial (r >= max_reward * t = 0) and the grid is
  // the target's indicator.  A positive reward makes a state recurse, so
  // the recursion itself never runs without one.
  const Mrm frozen(Ctmc(CsrBuilder(3, 3).build()), {0.0, 0.0, 0.0},
                   Labelling(3), 0);
  for (std::size_t t : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::set_global_threads(t);
    const auto grid = SericolaEngine(1e-8).joint_probability_all_starts_grid(
        frozen, std::vector<double>{0.5, 2.0}, std::vector<double>{0.0, 1.0},
        single(3, 1));
    ASSERT_EQ(grid.size(), 4u);
    for (const std::vector<double>& cell : grid)
      EXPECT_EQ(cell, (std::vector<double>{0.0, 1.0, 0.0}));
  }
  ThreadPool::set_global_threads(threads);
}

// Structure of the Sericola level loop, read from the obs counters: one
// jump level is one state-local pass (one pool region over the state
// tiles, no fork-join per (h, k, class) slot or per product group) and
// one lane product.  The measured calls pin validation at the basic
// level: the paranoid recompute (CSRL_VALIDATE=2) runs the engine again
// inside the measured window.

TEST(SericolaStructure, OneThreadPassMakesNoPerSlotForkJoins) {
#ifdef CSRL_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out";
#else
  const std::size_t threads = ThreadPool::global().num_threads();
  ThreadPool::set_global_threads(1);
  // More states than one tile holds, so the level pass runs over several
  // tiles; rewards 0..4 give m = 4 reward intervals.
  const Mrm model = random_mrm(20020623, 5000, 0.001);
  ASSERT_GT(model.num_states(), 4096u);
  StateSet target(model.num_states());
  for (std::size_t s = 0; s < model.num_states(); s += 11) target.insert(s);
  const SericolaEngine engine(1e-6);
  obs::MetricsSnapshot delta;
  {
    const ScopedValidation basic(ValidationLevel::kBasic);
    obs::ScopedRecording recording;
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    (void)engine.joint_probability_all_starts(model, 0.2, 0.3, target);
    delta = obs::metrics_delta(before, obs::snapshot_metrics());
  }
  ThreadPool::set_global_threads(threads);

  const std::uint64_t levels = delta.counter("p3/sericola/jump_levels");
  ASSERT_GT(levels, 2u);
  const std::uint64_t regions =
      delta.counter("pool/inline_runs") + delta.counter("pool/dispatches");
  EXPECT_LE(regions, levels) << "over " << levels << " jump levels";
  // Level 0 has no products; every later level runs exactly one.
  EXPECT_EQ(delta.counter("matrix/spmm/block_products"), levels - 1);
#endif
}

// The absorbing reward-0 states (success and fail of a Theorem-1
// reduction) keep +0 coefficients at every level, so only the other
// states run the recursion; the gauge counts them.

TEST(SericolaStructure, AbsorbingRewardZeroStatesSkipTheRecursion) {
#ifdef CSRL_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out";
#else
  const auto recursion_states = [](const Mrm& model, double t, double r,
                                   const StateSet& target) {
    const ScopedValidation basic(ValidationLevel::kBasic);
    obs::ScopedRecording recording;
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    (void)SericolaEngine(1e-8).joint_probability_all_starts(model, t, r,
                                                            target);
    return obs::metrics_delta(before, obs::snapshot_metrics())
        .gauge("p3/sericola/recursion_states");
  };
  // Q3: Doze, both idle and ad hoc busy recurse; success and fail do not.
  EXPECT_EQ(recursion_states(build_q3_reduced_mrm(), 24.0, 600.0,
                             single(5, 3)),
            3.0);
  // Reward-0 states that can still move recurse; 172 of 1200 states are
  // absorbing with reward 0.
  const Mrm interleaved =
      with_absorbing_zeros(random_mrm(5, 1200, 0.004), 2, 7);
  std::size_t moving_zeros = 0;
  for (std::size_t s = 0; s < interleaved.num_states(); ++s)
    if (interleaved.reward(s) == 0.0 && !interleaved.rates().row(s).empty())
      ++moving_zeros;
  ASSERT_GT(moving_zeros, 0u);
  EXPECT_EQ(recursion_states(interleaved, 1.0, 0.7, single(1200, 0)),
            1200.0 - 172.0);
  // hit_model's absorbing state 1 is the only trivial one.
  EXPECT_EQ(recursion_states(hit_model(1.0), 1.0, 0.5, single(2, 1)), 1.0);
#endif
}

// Structure of the Tijms-Veldman step: every sweep is one PhaseOperator
// product over the budget lanes, which runs inline below the operator's
// lane-work threshold and as at most one pool region above it.

TEST(DiscretisationStructure, SweepsAreLaneProductsTiledByLaneWork) {
#ifdef CSRL_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out";
#else
  const std::size_t threads = ThreadPool::global().num_threads();
  ThreadPool::set_global_threads(4);
  const Mrm model = build_q3_reduced_mrm();
  const StateSet target = single(model.num_states(), 3);
  const DiscretisationEngine engine(1.0 / 32.0);
  const auto measure = [&](double t, double r) {
    const ScopedValidation basic(ValidationLevel::kBasic);
    obs::ScopedRecording recording;
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    (void)engine.joint_probability_all_starts(model, t, r, target);
    return obs::metrics_delta(before, obs::snapshot_metrics());
  };
  // r = 10: 321 budget lanes under at most 13 bands, below
  // kParallelNnzThreshold (2^14) lane terms.  r = 300: 9601 lanes.
  const obs::MetricsSnapshot small = measure(1.0, 10.0);
  const obs::MetricsSnapshot large = measure(2.0, 300.0);
  ThreadPool::set_global_threads(threads);

  const std::uint64_t small_sweeps = small.counter("p3/discretisation/sweeps");
  EXPECT_EQ(small_sweeps, 31u);  // t/d - 1
  EXPECT_EQ(small.counter("spmv/multiply"), small_sweeps);
  EXPECT_EQ(small.counter("pool/dispatches"), 0u);
  const std::uint64_t large_sweeps = large.counter("p3/discretisation/sweeps");
  EXPECT_EQ(large_sweeps, 63u);
  EXPECT_EQ(large.counter("spmv/multiply"), large_sweeps);
  EXPECT_GT(large.counter("pool/dispatches"), 0u);
  EXPECT_LE(large.counter("pool/dispatches"), large_sweeps);
#endif
}

}  // namespace
}  // namespace csrl
