// Property-based cross-validation of the three Section-4 procedures.
//
// The strongest correctness argument available for the P3 machinery is
// that three algorithmically unrelated methods — Sericola's occupation-
// time recursion, the Tijms-Veldman discretisation and the pseudo-Erlang
// expansion — must all estimate the same joint probability
// Pr{Y_t <= r, X_t in T}.  We sweep pseudo-random MRMs and assert
// agreement within each method's accuracy, plus the structural invariants
// (range, monotonicity, complementation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/engines/discretisation_engine.hpp"
#include "core/engines/erlang_engine.hpp"
#include "core/engines/sericola_engine.hpp"
#include "ctmc/uniformisation.hpp"
#include "final_state_oracle.hpp"
#include "models/synthetic.hpp"
#include "util/rng.hpp"

namespace csrl {
namespace {

struct Instance {
  Mrm model;
  double t;
  double r;
  StateSet target;
};

Instance make_instance(std::uint64_t seed) {
  SplitMix64 rng(seed * 7919 + 13);
  const std::size_t n = 3 + rng.next_below(4);  // 3..6 states
  Mrm model = random_mrm(seed, n, /*density=*/0.5, /*max_rate=*/3.0,
                         /*max_reward=*/3);
  const double t = 0.5 + rng.next_double() * 2.0;
  // Pick r strictly inside (0, max_reward * t) so the bound binds, on the
  // discretisation grid (a multiple of 1/4), and *away from the atoms* of
  // Y_t.  The law of Y_t has point masses at rho(s) * t (the paths that
  // never leave state s); the pseudo-Erlang approximation's randomised
  // bound smears over a width ~ r/sqrt(k), so its convergence degrades
  // from O(1/k) to O(1/sqrt(k)) when r sits next to an atom — a genuine
  // property of the method (Section 4.2), not an implementation issue.
  const double max_rt = model.max_reward() * t;
  double r = 0.25;
  double best_distance = -1.0;
  for (double candidate = 0.25; candidate < max_rt; candidate += 0.25) {
    if (candidate < 0.15 * max_rt || candidate > 0.85 * max_rt) continue;
    double distance = max_rt;
    for (std::size_t s = 0; s < n; ++s)
      distance = std::min(distance, std::abs(model.reward(s) * t - candidate));
    if (distance > best_distance) {
      best_distance = distance;
      r = candidate;
    }
  }
  StateSet target(n);
  for (std::size_t s = 0; s < n; ++s)
    if (rng.next_double() < 0.5) target.insert(s);
  if (target.empty()) target.insert(0);
  return {std::move(model), t, r, std::move(target)};
}

class EngineAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineAgreement, ThreeMethodsConcur) {
  const Instance inst = make_instance(GetParam());
  const SericolaEngine sericola(1e-10);
  const ErlangEngine erlang(2048);

  const auto ref = sericola.joint_probability_all_starts(
      inst.model, inst.t, inst.r, inst.target);
  const auto approx = erlang.joint_probability_all_starts(
      inst.model, inst.t, inst.r, inst.target);
  ASSERT_EQ(ref.size(), approx.size());
  for (std::size_t s = 0; s < ref.size(); ++s) {
    EXPECT_GE(ref[s], -1e-12);
    EXPECT_LE(ref[s], 1.0 + 1e-12);
    // Erlang-2048's residual error is O(1/k) with a modest constant.
    EXPECT_NEAR(ref[s], approx[s], 5e-3) << "state " << s;
  }
}

TEST_P(EngineAgreement, DiscretisationConcursFromInitialState) {
  const Instance inst = make_instance(GetParam());
  // Pick a grid that divides t and r and respects E(s) d < 1.
  const double exit = inst.model.chain().max_exit_rate();
  double d = 1.0 / 64.0;
  while (exit * d >= 1.0) d /= 2.0;
  // Round t to the grid (the instance's r is already a multiple of 1/4).
  const double t = std::max(d, std::floor(inst.t / d) * d);

  const SericolaEngine sericola(1e-10);
  const DiscretisationEngine discretisation(d);
  const auto ref = sericola.joint_probability_all_starts(inst.model, t, inst.r,
                                                         inst.target);
  const double from_init = oracle::from_initial(discretisation, inst.model, t,
                                                inst.r, inst.target);
  EXPECT_NEAR(from_init, ref[inst.model.initial_state()], 3e-2);
}

TEST_P(EngineAgreement, ComplementationAgainstTransient) {
  const Instance inst = make_instance(GetParam());
  const SericolaEngine sericola(1e-10);
  const auto below = sericola.joint_probability_all_starts(
      inst.model, inst.t, inst.r, inst.target);
  // Pr{Y<=r, X in T} <= Pr{X in T}.
  const auto occupancy =
      transient_reach(inst.model.chain(), inst.target, inst.t);
  for (std::size_t s = 0; s < below.size(); ++s)
    EXPECT_LE(below[s], occupancy[s] + 1e-9);
}

TEST_P(EngineAgreement, MonotoneInRewardBudget) {
  const Instance inst = make_instance(GetParam());
  const SericolaEngine sericola(1e-10);
  const auto tight = sericola.joint_probability_all_starts(
      inst.model, inst.t, inst.r * 0.5, inst.target);
  const auto loose = sericola.joint_probability_all_starts(
      inst.model, inst.t, inst.r, inst.target);
  for (std::size_t s = 0; s < tight.size(); ++s)
    EXPECT_LE(tight[s], loose[s] + 1e-9);
}

TEST_P(EngineAgreement, TargetAdditivity) {
  // Pr{Y<=r, X in A} + Pr{Y<=r, X in B} = Pr{Y<=r, X in A|B} for disjoint
  // A, B — the engine output must be a measure over final states.
  const Instance inst = make_instance(GetParam());
  const std::size_t n = inst.model.num_states();
  StateSet a(n), b(n);
  for (std::size_t s = 0; s < n; ++s) (s % 2 == 0 ? a : b).insert(s);
  const SericolaEngine sericola(1e-10);
  const auto pa =
      sericola.joint_probability_all_starts(inst.model, inst.t, inst.r, a);
  const auto pb =
      sericola.joint_probability_all_starts(inst.model, inst.t, inst.r, b);
  const auto pab = sericola.joint_probability_all_starts(inst.model, inst.t,
                                                         inst.r, a | b);
  for (std::size_t s = 0; s < n; ++s)
    EXPECT_NEAR(pa[s] + pb[s], pab[s], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(RandomModels, EngineAgreement,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Batched-grid cross-validation: the same three-way agreement, but over a
// full (t, r) lattice evaluated through the engines' batched entry points
// (core/batch.hpp).
// ---------------------------------------------------------------------------

struct GridInstance {
  Mrm model;
  std::vector<double> times;
  std::vector<double> rewards;
  StateSet target;
  double d = 0.0;  // discretisation step aligned with both axes
};

/// A lattice around make_instance's point: two time bounds on the
/// discretisation grid and up to three reward bounds picked, like
/// make_instance, to stay away from the atoms of Y_t — for *both* lattice
/// times, since the atoms rho(s) * t move with t and the pseudo-Erlang
/// smear degrades next to them.
GridInstance make_grid_instance(std::uint64_t seed) {
  Instance inst = make_instance(seed);
  const double exit = inst.model.chain().max_exit_rate();
  double d = 1.0 / 64.0;
  while (exit * d >= 1.0) d /= 2.0;

  const double t_hi = std::max(d, std::floor(inst.t / d) * d);
  const double t_lo = std::max(d, std::floor(0.6 * inst.t / d) * d);
  std::vector<double> times{t_lo, t_hi};

  // Score every 1/4-multiple candidate by its distance to the nearest
  // atom over the lattice times; keep the three best-separated ones.
  const std::size_t n = inst.model.num_states();
  const double max_rt = inst.model.max_reward() * t_hi;
  std::vector<std::pair<double, double>> scored;  // (-distance, candidate)
  for (double candidate = 0.25; candidate < max_rt; candidate += 0.25) {
    if (candidate < 0.15 * max_rt || candidate > 0.85 * max_rt) continue;
    double distance = max_rt;
    for (double t : times)
      for (std::size_t s = 0; s < n; ++s)
        distance =
            std::min(distance, std::abs(inst.model.reward(s) * t - candidate));
    scored.emplace_back(-distance, candidate);
  }
  std::sort(scored.begin(), scored.end());
  std::vector<double> rewards;
  for (std::size_t i = 0; i < scored.size() && rewards.size() < 3; ++i)
    rewards.push_back(scored[i].second);
  if (rewards.empty()) rewards.push_back(inst.r);
  std::sort(rewards.begin(), rewards.end());

  return {std::move(inst.model), std::move(times), std::move(rewards),
          std::move(inst.target), d};
}

class GridAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridAgreement, ThreeMethodsConcurOnTheFullLattice) {
  const GridInstance inst = make_grid_instance(GetParam());
  const SericolaEngine sericola(1e-10);
  const ErlangEngine erlang(2048);
  const DiscretisationEngine discretisation(inst.d);

  const auto ref = sericola.joint_probability_all_starts_grid(
      inst.model, inst.times, inst.rewards, inst.target);
  const auto approx = erlang.joint_probability_all_starts_grid(
      inst.model, inst.times, inst.rewards, inst.target);
  const auto discretised = discretisation.joint_probability_all_starts_grid(
      inst.model, inst.times, inst.rewards, inst.target);

  ASSERT_EQ(ref.size(), inst.times.size() * inst.rewards.size());
  ASSERT_EQ(approx.size(), ref.size());
  ASSERT_EQ(discretised.size(), ref.size());
  const std::size_t init = inst.model.initial_state();
  for (std::size_t g = 0; g < ref.size(); ++g) {
    for (std::size_t s = 0; s < ref[g].size(); ++s) {
      EXPECT_GE(ref[g][s], -1e-12);
      EXPECT_LE(ref[g][s], 1.0 + 1e-12);
      // Looser than the point test's 5e-3: the runner-up reward
      // candidates sit closer to the atoms of Y_t.
      EXPECT_NEAR(ref[g][s], approx[g][s], 2e-2)
          << "lattice point " << g << ", state " << s;
    }
    EXPECT_NEAR(oracle::from_initial(inst.model, discretised[g]),
                ref[g][init], 3e-2)
        << "lattice point " << g;
  }
}

TEST_P(GridAgreement, LatticeIsMonotoneAlongBothAxes) {
  const GridInstance inst = make_grid_instance(GetParam());
  const SericolaEngine sericola(1e-10);
  const auto grid = sericola.joint_probability_all_starts_grid(
      inst.model, inst.times, inst.rewards, inst.target);
  // Raising r (t fixed) can only admit more paths.  (Raising t is NOT
  // monotone in general — the target may be left again.)
  const std::size_t rewards = inst.rewards.size();
  for (std::size_t i = 0; i < inst.times.size(); ++i)
    for (std::size_t j = 0; j + 1 < rewards; ++j)
      for (std::size_t s = 0; s < inst.model.num_states(); ++s)
        EXPECT_LE(grid[i * rewards + j][s], grid[i * rewards + j + 1][s] + 1e-9)
            << "t index " << i << ", r index " << j << ", state " << s;
}

TEST_P(GridAgreement, BatchedLatticesAreBitwiseIdenticalToThePointLoop) {
  const GridInstance inst = make_grid_instance(GetParam());
  const SericolaEngine sericola(1e-10);
  const DiscretisationEngine discretisation(inst.d);

  const auto batched = sericola.joint_probability_all_starts_grid(
      inst.model, inst.times, inst.rewards, inst.target);
  const auto looped = joint_grid_reference(sericola, inst.model, inst.times,
                                           inst.rewards, inst.target);
  ASSERT_EQ(batched.size(), looped.size());
  for (std::size_t g = 0; g < batched.size(); ++g)
    for (std::size_t s = 0; s < batched[g].size(); ++s)
      EXPECT_EQ(batched[g][s], looped[g][s])
          << "sericola lattice point " << g << ", state " << s;

  const auto discretised_batched =
      discretisation.joint_probability_all_starts_grid(
          inst.model, inst.times, inst.rewards, inst.target);
  const auto discretised_looped = joint_grid_reference(
      discretisation, inst.model, inst.times, inst.rewards, inst.target);
  ASSERT_EQ(discretised_batched.size(), discretised_looped.size());
  for (std::size_t g = 0; g < discretised_batched.size(); ++g)
    for (std::size_t s = 0; s < discretised_batched[g].size(); ++s)
      EXPECT_EQ(discretised_batched[g][s], discretised_looped[g][s])
          << "discretisation lattice point " << g << ", state " << s;
}

INSTANTIATE_TEST_SUITE_P(RandomModels, GridAgreement,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace csrl
