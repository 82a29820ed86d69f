// Statistical model checking vs the numerical procedures: every estimate
// must bracket the engine result within 4 sigma (flake rate ~ 6e-5 per
// assertion with the fixed seeds below).
#include "simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/checker.hpp"
#include "core/engines/sericola_engine.hpp"
#include "core/reward_ops.hpp"
#include "logic/parser.hpp"
#include "models/adhoc.hpp"
#include "models/synthetic.hpp"
#include "util/error.hpp"

namespace csrl {
namespace {

TEST(Simulator, DeterministicInSeed) {
  const Mrm m = birth_death_mrm(4, 1.0, 2.0);
  SimulationOptions options;
  options.samples = 1000;
  options.seed = 7;
  Simulator a(m, options);
  Simulator b(m, options);
  const StateSet full = m.labelling().states_with("full");
  const StateSet everything(m.num_states(), true);
  const auto ea = a.until_probability(everything, full, Interval::upto(2.0),
                                      Interval::unbounded());
  const auto eb = b.until_probability(everything, full, Interval::upto(2.0),
                                      Interval::unbounded());
  EXPECT_DOUBLE_EQ(ea.probability, eb.probability);
}

TEST(Simulator, TimeBoundedUntilMatchesUniformisation) {
  const Mrm m = birth_death_mrm(5, 2.0, 1.0);
  const Checker checker(m);
  const double exact =
      checker.value_initially(*parse_formula("P=? [ F[0,2] full ]"));
  Simulator sim(m, {.seed = 11, .samples = 200'000});
  const auto estimate = sim.until_probability(
      StateSet(m.num_states(), true), m.labelling().states_with("full"),
      Interval::upto(2.0), Interval::unbounded());
  EXPECT_TRUE(estimate.consistent_with(exact))
      << estimate.probability << " vs " << exact;
}

TEST(Simulator, RewardBoundedUntilMatchesDuality) {
  const Mrm m = birth_death_mrm(5, 2.0, 1.0);
  // State 0 has reward 0 and is non-absorbing: restrict phi to positive
  // reward states so the duality applies on the numerical side.
  const Checker checker(m);
  const double exact =
      checker.value_initially(*parse_formula("P=? [ !empty U{0,6} full ]"));
  Simulator sim(m, {.seed = 13, .samples = 200'000});
  const auto estimate = sim.until_probability(
      checker.sat(*parse_formula("!empty")), m.labelling().states_with("full"),
      Interval::unbounded(), Interval::upto(6.0));
  EXPECT_TRUE(estimate.consistent_with(exact))
      << estimate.probability << " vs " << exact;
}

TEST(Simulator, JointProbabilityMatchesSericola) {
  const Mrm m = birth_death_mrm(4, 1.5, 1.0);
  const double t = 2.0, r = 3.0;
  StateSet target(m.num_states());
  target.insert(2);
  target.insert(3);
  const SericolaEngine engine(1e-10);
  const double exact =
      engine.joint_probability_all_starts(m, t, r, target)[m.initial_state()];
  Simulator sim(m, {.seed = 17, .samples = 200'000});
  const auto estimate = sim.joint_probability(t, r, target);
  EXPECT_TRUE(estimate.consistent_with(exact))
      << estimate.probability << " vs " << exact;
}

TEST(Simulator, Q3CaseStudyWithinConfidence) {
  const Mrm reduced = build_q3_reduced_mrm();
  StateSet success(5);
  success.insert(3);
  Simulator sim(reduced, {.seed = 23, .samples = 400'000});
  const auto estimate =
      sim.joint_probability(kTimeBoundHours, kRewardBoundMah, success);
  // Our engines' converged value; the simulator must agree statistically.
  EXPECT_TRUE(estimate.consistent_with(0.49699672))
      << estimate.probability << " +- " << estimate.half_width_95;
}

TEST(Simulator, HandlesGeneralIntervalsBeyondTheEngines) {
  // U[t1,t2]{r1,r2} with all four bounds active: compare against an
  // exactly solvable chain.  0 -> 1(goal, absorbing), rate a, reward 2:
  // success iff the jump time T satisfies T in [t1,t2] and 2T in [r1,r2].
  const double a = 1.0;
  CsrBuilder b(2, 2);
  b.add(0, 1, a);
  Labelling l(2);
  l.add_label(0, "wait");
  l.add_label(1, "goal");
  const Mrm m(Ctmc(b.build()), {2.0, 0.0}, std::move(l), 0);
  StateSet wait(2), goal(2);
  wait.insert(0);
  goal.insert(1);
  const Interval time{0.5, 2.0};
  const Interval reward{2.0, 3.0};  // jump time in [1.0, 1.5]
  // Effective window: T in [1.0, 1.5].
  const double exact = std::exp(-a * 1.0) - std::exp(-a * 1.5);
  Simulator sim(m, {.seed = 29, .samples = 200'000});
  const auto estimate = sim.until_probability(wait, goal, time, reward);
  EXPECT_TRUE(estimate.consistent_with(exact))
      << estimate.probability << " vs " << exact;
}

TEST(Simulator, PointMassCasesAreExact) {
  // From a goal state the until holds surely (bounds include 0);
  // from a dead-end non-goal state it fails surely.
  CsrBuilder b(2, 2);
  const Mrm m(Ctmc(b.build()), {0.0, 0.0}, Labelling(2), 0);
  StateSet goal(2);
  goal.insert(0);
  Simulator sim(m, {.seed = 3, .samples = 1000});
  const auto hit = sim.until_probability(StateSet(2, true), goal,
                                         Interval::unbounded(),
                                         Interval::unbounded());
  EXPECT_DOUBLE_EQ(hit.probability, 1.0);
  EXPECT_DOUBLE_EQ(hit.half_width_95, 0.0);
  StateSet other(2);
  other.insert(1);
  const auto miss = sim.until_probability(StateSet(2, true), other,
                                          Interval::unbounded(),
                                          Interval::unbounded());
  EXPECT_DOUBLE_EQ(miss.probability, 0.0);
}

TEST(Simulator, ExpectedRewardMatchesNumericalValue) {
  const Mrm m = birth_death_mrm(5, 2.0, 1.0);
  const double exact = expected_accumulated_reward(m, 3.0);
  Simulator sim(m, {.seed = 31, .samples = 200'000});
  const auto estimate = sim.expected_accumulated_reward(3.0);
  EXPECT_NEAR(estimate.probability, exact, 4.0 / 1.96 * estimate.half_width_95);
}

TEST(Simulator, ValidationErrors) {
  const Mrm m = birth_death_mrm(3, 1.0, 1.0);
  EXPECT_THROW(Simulator(m, {.seed = 1, .samples = 0}), ModelError);
  Simulator sim(m, {.seed = 1, .samples = 10});
  EXPECT_THROW((void)sim.joint_probability(-1.0, 1.0, StateSet(3)), ModelError);
  EXPECT_THROW(
      (void)sim.until_probability(StateSet(2), StateSet(3),
                                  Interval::unbounded(), Interval::unbounded()),
      ModelError);
}

}  // namespace
}  // namespace csrl
