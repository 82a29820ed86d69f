// General time/reward windows for P3 untils (the paper's Section-6
// outlook), implemented on the discretisation grid and cross-validated
// against closed forms and the Monte-Carlo simulator.
#include <gtest/gtest.h>

#include <cmath>

#include "core/checker.hpp"
#include "core/engines/discretisation_engine.hpp"
#include "core/engines/sericola_engine.hpp"
#include "final_state_oracle.hpp"
#include "logic/parser.hpp"
#include "simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace csrl {
namespace {

/// 0 (wait, rho=2) -> 1 (goal, rho=0, absorbing) at rate a: the jump at
/// T ~ Exp(a) arrives with reward 2T, so Phi U^{[t1,t2]}_{[r1,r2]} Psi
/// succeeds iff T lies in [t1,t2] and 2T in [r1,r2].
Mrm window_model(double a) {
  CsrBuilder b(2, 2);
  b.add(0, 1, a);
  Labelling l(2);
  l.add_label(0, "wait");
  l.add_label(1, "goal");
  return Mrm(Ctmc(b.build()), {2.0, 0.0}, std::move(l), 0);
}

TEST(IntervalUntil, MatchesClosedFormOnBothWindows) {
  const double a = 1.0;
  const Mrm m = window_model(a);
  const DiscretisationEngine engine(1.0 / 256);
  StateSet wait(2), goal(2);
  wait.insert(0);
  goal.insert(1);
  // T in [0.5, 2] and 2T in [2, 3] => T in [1, 1.5].
  const double p = oracle::from_initial(
      m, engine.interval_until_all_starts(m, wait, goal, Interval{0.5, 2.0},
                                          Interval{2.0, 3.0}));
  EXPECT_NEAR(p, std::exp(-a * 1.0) - std::exp(-a * 1.5), 3e-3);
}

TEST(IntervalUntil, ZeroAnchoredWindowsMatchSericola) {
  // With lo = 0 the window algorithm must agree with the dedicated P3
  // machinery (Theorem 1 + Sericola) on a nontrivial model.
  SplitMix64 rng(99);
  CsrBuilder b(4, 4);
  std::vector<double> rewards{1.0, 2.0, 0.0, 3.0};
  for (std::size_t s = 0; s < 4; ++s)
    for (std::size_t to = 0; to < 4; ++to)
      if (to != s && rng.next_double() < 0.7)
        b.add(s, to, rng.next_double(0.2, 1.5));
  Labelling l(4);
  l.add_label(0, "p");
  l.add_label(1, "p");
  l.add_label(3, "q");
  const Mrm m(Ctmc(b.build()), std::move(rewards), std::move(l), 0);
  const Checker checker(m);  // default Sericola for the [0,..] form
  const StateSet phi = checker.sat(*parse_formula("p"));
  const StateSet psi = checker.sat(*parse_formula("q"));
  const double t = 1.5, r = 2.0;

  const double reference =
      checker.values(*parse_formula("P=? [ p U[0,1.5]{0,2} q ]"))[0];
  const DiscretisationEngine engine(1.0 / 512);
  const double windowed = oracle::from_initial(
      m, engine.interval_until_all_starts(m, phi, psi, Interval::upto(t),
                                          Interval::upto(r)));
  EXPECT_NEAR(windowed, reference, 5e-3);
}

TEST(IntervalUntil, SimulatorConcursOnRandomWindows) {
  SplitMix64 rng(123);
  for (int round = 0; round < 3; ++round) {
    // Random 3-state strongly connected model, integer rewards.
    CsrBuilder b(3, 3);
    std::vector<double> rewards(3);
    for (std::size_t s = 0; s < 3; ++s) {
      rewards[s] = static_cast<double>(1 + rng.next_below(2));
      b.add(s, (s + 1) % 3, rng.next_double(0.3, 1.5));
      b.add(s, (s + 2) % 3, rng.next_double(0.3, 1.5));
    }
    Labelling l(3);
    l.add_label(0, "p");
    l.add_label(1, "p");
    l.add_label(2, "q");
    const Mrm m(Ctmc(b.build()), std::move(rewards), std::move(l), 0);
    StateSet phi(3), psi(3);
    phi.insert(0);
    phi.insert(1);
    psi.insert(2);
    const Interval time{0.25, 1.5};
    const Interval reward{0.25, 2.0};

    // The window boundaries cut through probability mass, so the O(d)
    // constant is larger than in the plain scheme; allow the grid error
    // on top of the Monte-Carlo band.
    const DiscretisationEngine engine(1.0 / 512);
    const double numeric = oracle::from_initial(
        m, engine.interval_until_all_starts(m, phi, psi, time, reward));
    Simulator sim(m, {.seed = 1000 + static_cast<std::uint64_t>(round),
                      .samples = 100'000});
    const auto estimate = sim.until_probability(phi, psi, time, reward);
    const double tolerance = 5e-3 + 3.0 * estimate.half_width_95;
    EXPECT_NEAR(estimate.probability, numeric, tolerance)
        << "round " << round;
  }
}

TEST(IntervalUntil, CheckerRoutesGeneralWindowsToTheGrid) {
  const Mrm m = window_model(1.0);
  CheckOptions options;
  options.engine = P3Engine::kDiscretisation;
  options.discretisation_step = 1.0 / 256;
  const Checker checker(m, options);
  const auto probs = checker.values(
      *parse_formula("P=? [ wait U[0.5,2]{2,3} goal ]"));
  EXPECT_NEAR(probs[0], std::exp(-1.0) - std::exp(-1.5), 3e-3);
  // From the goal state: y(0) = 0 is below the reward window and the goal
  // state earns nothing, so the window never opens.
  EXPECT_NEAR(probs[1], 0.0, 1e-9);
}

TEST(IntervalUntil, OtherEnginesRejectWithGuidance) {
  const Mrm m = window_model(1.0);
  const Checker sericola(m);  // default engine
  try {
    (void)sericola.values(*parse_formula("P=? [ wait U[0.5,2]{2,3} goal ]"));
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("kDiscretisation"),
              std::string::npos);
  }
}

TEST(IntervalUntil, UnboundedUpperBoundsRejected) {
  const Mrm m = window_model(1.0);
  const DiscretisationEngine engine(1.0 / 64);
  StateSet wait(2), goal(2);
  wait.insert(0);
  goal.insert(1);
  EXPECT_THROW((void)engine.interval_until_all_starts(
                   m, wait, goal, Interval::unbounded(), Interval::upto(1.0)),
               ModelError);
}

TEST(IntervalUntil, ImmediateSatisfactionAtTimeZero) {
  // Starting in a Psi-state with both windows open at 0 succeeds surely.
  const Mrm m = window_model(1.0);
  const DiscretisationEngine engine(1.0 / 64);
  StateSet everything(2, true), goal(2);
  goal.insert(1);
  CsrBuilder b(2, 2);
  b.add(0, 1, 1.0);
  Labelling l(2);
  l.add_label(1, "goal");
  const Mrm from_goal(Ctmc(b.build()), {2.0, 0.0}, std::move(l), 1);
  const double p = oracle::from_initial(
      from_goal,
      engine.interval_until_all_starts(from_goal, everything, goal,
                                       Interval::upto(1.0),
                                       Interval::upto(1.0)));
  EXPECT_DOUBLE_EQ(p, 1.0);
}

}  // namespace
}  // namespace csrl
