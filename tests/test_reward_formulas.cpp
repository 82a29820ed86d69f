// The expected-reward operator R~r[...] / R=?[...].
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/checker.hpp"
#include "core/reward_ops.hpp"
#include "logic/parser.hpp"
#include "models/synthetic.hpp"
#include "pure_death_mrm.hpp"
#include "util/error.hpp"

namespace csrl {
namespace {

/// 0 (reward 1) -> 1 (reward 0, absorbing) at rate a.
Mrm decay(double a) {
  CsrBuilder b(2, 2);
  b.add(0, 1, a);
  Labelling l(2);
  l.add_label(0, "up");
  l.add_label(1, "down");
  return Mrm(Ctmc(b.build()), {1.0, 0.0}, std::move(l), 0);
}

TEST(RewardFormulas, ParseAndPrintAllShapes) {
  for (const char* text : {
           "R=? [ C<=10 ]",
           "R=? [ I=2.5 ]",
           "R=? [ F (down) ]",
           "R=? [ S ]",
           "R<=5 [ C<=10 ]",
           "R>0.5 [ S ]",
       }) {
    const FormulaPtr f = parse_formula(text);
    EXPECT_EQ(f->kind(), FormulaKind::kReward);
    EXPECT_EQ(parse_formula(f->to_string())->to_string(), f->to_string())
        << text;
  }
}

TEST(RewardFormulas, MalformedRejected) {
  for (const char* bad : {
           "R=? [ C<10 ]",    // C needs <=
           "R=? [ I=2.5",     // unclosed
           "R=? [ X up ]",    // not a reward measure
           "R=? [ C<=-1 ]",   // negative horizon (lexes as C <= -1? '-' is
                              // not a token, so this fails at the lexer)
       }) {
    EXPECT_THROW((void)parse_formula(bad), Error) << bad;
  }
}

TEST(RewardFormulas, CumulativeMatchesClosedForm) {
  // E[Y_t] = (1 - e^{-a t}) / a for the decay model.
  const double a = 2.0;
  const Mrm m = decay(a);
  const Checker c(m);
  for (double t : {0.5, 2.0}) {
    const auto v = c.values(*parse_formula(
        "R=? [ C<=" + std::to_string(t) + " ]"));
    EXPECT_NEAR(v[0], (1.0 - std::exp(-a * t)) / a, 1e-9) << t;
    EXPECT_NEAR(v[1], 0.0, 1e-12);
  }
}

TEST(RewardFormulas, InstantaneousMatchesClosedForm) {
  const double a = 1.5;
  const Mrm m = decay(a);
  const auto v = Checker(m).values(*parse_formula("R=? [ I=2 ]"));
  EXPECT_NEAR(v[0], std::exp(-a * 2.0), 1e-9);
  EXPECT_NEAR(v[1], 0.0, 1e-12);
}

TEST(RewardFormulas, ReachabilityRewardOnPureDeathChain) {
  // From state i the expected reward until "dead" is sum_{j<=i} j/mu.
  const double mu = 2.0;
  const Mrm m = pure_death_mrm(4, mu);
  const auto v = Checker(m).values(*parse_formula("R=? [ F dead ]"));
  EXPECT_NEAR(v[0], 0.0, 1e-12);
  EXPECT_NEAR(v[1], 1.0 / mu, 1e-9);
  EXPECT_NEAR(v[2], (1.0 + 2.0) / mu, 1e-9);
  EXPECT_NEAR(v[3], (1.0 + 2.0 + 3.0) / mu, 1e-9);
}

TEST(RewardFormulas, ReachabilityRewardInfiniteWhereUnreachable) {
  // 0 -> 1(absorbing), "goal" label only on 0's sibling branch: from the
  // absorbing non-goal state the reward to reach the goal is infinite.
  CsrBuilder b(3, 3);
  b.add(0, 1, 1.0);
  b.add(0, 2, 1.0);
  Labelling l(3);
  l.add_label(1, "goal");
  const Mrm m(Ctmc(b.build()), {1.0, 0.0, 1.0}, std::move(l), 0);
  const auto v = Checker(m).values(*parse_formula("R=? [ F goal ]"));
  EXPECT_TRUE(std::isinf(v[2]));  // trapped in 2 forever
  EXPECT_TRUE(std::isinf(v[0]));  // may get trapped => not almost sure
  EXPECT_DOUBLE_EQ(v[1], 0.0);
}

TEST(RewardFormulas, ReachabilityRewardIncludesImpulses) {
  // 0 -> 1(goal) at rate a with impulse 5 and rho(0) = 1:
  // E[reward to goal] = 1/a + 5.
  const double a = 2.0;
  CsrBuilder b(2, 2);
  b.add(0, 1, a);
  CsrBuilder imp(2, 2);
  imp.add(0, 1, 5.0);
  Labelling l(2);
  l.add_label(1, "goal");
  const Mrm m = Mrm(Ctmc(b.build()), {1.0, 0.0}, std::move(l), 0)
                    .with_impulses(imp.build());
  const auto v = Checker(m).values(*parse_formula("R=? [ F goal ]"));
  EXPECT_NEAR(v[0], 1.0 / a + 5.0, 1e-9);
}

TEST(RewardFormulas, LongRunRewardRateOnBirthDeath) {
  // lambda = mu: uniform stationary distribution over n states; rewards
  // are 0..n-1, so the long-run rate is (n-1)/2.
  const Mrm m = birth_death_mrm(5, 1.0, 1.0);
  const auto v = Checker(m).values(*parse_formula("R=? [ S ]"));
  for (std::size_t s = 0; s < 5; ++s) EXPECT_NEAR(v[s], 2.0, 1e-7) << s;
}

TEST(RewardFormulas, LongRunRateSplitsAcrossBsccs) {
  // 0 branches to absorbing 1 (reward 3) and absorbing 2 (reward 9).
  CsrBuilder b(3, 3);
  b.add(0, 1, 1.0);
  b.add(0, 2, 3.0);
  const Mrm m(Ctmc(b.build()), {0.0, 3.0, 9.0}, Labelling(3), 0);
  const auto v = Checker(m).values(*parse_formula("R=? [ S ]"));
  EXPECT_NEAR(v[0], 0.25 * 3.0 + 0.75 * 9.0, 1e-9);
  EXPECT_NEAR(v[1], 3.0, 1e-9);
  EXPECT_NEAR(v[2], 9.0, 1e-9);
}

TEST(RewardFormulas, LongRunRateOfTheIndicatorOfAIsSteadyStateOfA) {
  // S=? [ a ] and R=? [ S ] share one BSCC loop.  With the 0/1 indicator
  // of a as the only reward they weight every state alike, so they agree
  // bit for bit, plain and on the quotient of two clones.  Transient
  // state 0 splits over the BSCCs {1, 2}, {3, 4} and {5}.
  CsrBuilder b(6, 6);
  b.add(0, 1, 1.0);
  b.add(0, 3, 2.0);
  b.add(0, 5, 0.5);
  b.add(1, 2, 3.0);
  b.add(2, 1, 1.0);
  b.add(3, 4, 2.0);
  b.add(4, 3, 5.0);
  Labelling l(6);
  for (std::size_t s : {0, 1, 3, 5}) l.add_label(s, "a");
  const Mrm base(Ctmc(b.build()), l.states_with("a").indicator(), l, 0);
  const Mrm model = replicated_mrm(base, 2);
  CheckOptions lumped;
  lumped.lump = true;
  for (const CheckOptions& options : {CheckOptions{}, lumped}) {
    const Checker c(model, options);
    const std::vector<double> steady = c.values(*parse_formula("S=? [ a ]"));
    const std::vector<double> rate = c.values(*parse_formula("R=? [ S ]"));
    ASSERT_EQ(steady.size(), rate.size());
    EXPECT_NEAR(steady[0], (1.0 * 0.25 + 2.0 * 5.0 / 7.0 + 0.5) / 3.5, 1e-9);
    for (std::size_t s = 0; s < steady.size(); ++s)
      EXPECT_EQ(steady[s], rate[s]) << s;
  }
}

TEST(RewardFormulas, BoundedFormDecides) {
  const Mrm m = decay(1.0);  // E[Y_inf] = 1, E[Y_1] = 1 - e^{-1} ~ 0.632
  const Checker c(m);
  EXPECT_TRUE(c.holds_initially(*parse_formula("R>0.6 [ C<=1 ]")));
  EXPECT_FALSE(c.holds_initially(*parse_formula("R>0.7 [ C<=1 ]")));
  // A reward-earning trap accumulates rho * t deterministically.
  CsrBuilder b(1, 1);
  const Mrm trap(Ctmc(b.build()), {1.0}, Labelling(1), 0u);
  EXPECT_TRUE(Checker(trap).holds_initially(*parse_formula("R>=2 [ C<=2 ]")));
}

TEST(RewardFormulas, NestedInsideBooleanAndProbability) {
  const Mrm m = pure_death_mrm(4, 2.0);
  const Checker c(m);
  // States whose expected remaining reward is below 1: {0, 1}.
  const StateSet cheap = c.sat(*parse_formula("R<1 [ F dead ]"));
  EXPECT_EQ(cheap.members(), (std::vector<std::size_t>{0, 1}));
  // And used inside a path formula's target.
  const double p = c.value_initially(
      *parse_formula("P=? [ F[0,2] ( R<1 [ F dead ] ) ]"));
  EXPECT_GT(p, 0.0);
  EXPECT_LE(p, 1.0);
}

TEST(RewardFormulas, SatOfQueryThrows) {
  const Mrm m = decay(1.0);
  EXPECT_THROW((void)Checker(m).sat(*parse_formula("R=? [ S ]")), ModelError);
}

TEST(RewardFormulas, CumulativeEqualsScalarVersionFromInitialState) {
  // Flip-flop 0 <-> 1 at rates a, b earning rho0, rho1 and starting in 1:
  // E[Y_t] = rho1 t + (rho0 - rho1) int_0^t P10(u) du, with
  // P10(u) = b/(a+b) (1 - e^{-(a+b)u}).  The checker's value at the
  // initial state and the scalar routine both match it.
  const double a = 2.0, b = 0.5, rho0 = 3.0, rho1 = 1.0, t = 3.0;
  CsrBuilder rates(2, 2);
  rates.add(0, 1, a);
  rates.add(1, 0, b);
  const Mrm m(Ctmc(rates.build()), {rho0, rho1}, Labelling(2), 1);
  const double q = a + b;
  const double occupancy0 = b / q * (t - (1.0 - std::exp(-q * t)) / q);
  const double exact = rho1 * t + (rho0 - rho1) * occupancy0;
  const auto v = Checker(m).values(*parse_formula("R=? [ C<=3 ]"));
  EXPECT_NEAR(v[m.initial_state()], exact, 1e-8);
  EXPECT_NEAR(expected_accumulated_reward(m, t), exact, 1e-8);
}

}  // namespace
}  // namespace csrl
