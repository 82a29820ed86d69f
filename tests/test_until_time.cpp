#include <gtest/gtest.h>

#include <cmath>

#include "core/checker.hpp"
#include "logic/parser.hpp"
#include "models/synthetic.hpp"
#include "pure_death_mrm.hpp"
#include "util/error.hpp"

namespace csrl {
namespace {

/// 0 -> 1 at rate a (1 absorbing): P(F[0,t] goal) from 0 is 1 - e^{-a t}.
Mrm two_state(double a) {
  CsrBuilder b(2, 2);
  b.add(0, 1, a);
  Labelling l(2);
  l.add_label(1, "goal");
  return Mrm(Ctmc(b.build()), {1.0, 0.0}, std::move(l), 0);
}

TEST(TimeBoundedUntil, ExponentialReachability) {
  const double a = 1.7;
  const Mrm m = two_state(a);
  const Checker c(m);
  for (double t : {0.25, 1.0, 4.0}) {
    const auto probs = c.values(*parse_formula(
        "P=? [ F[0," + std::to_string(t) + "] goal ]"));
    EXPECT_NEAR(probs[0], 1.0 - std::exp(-a * t), 1e-9) << t;
    EXPECT_NEAR(probs[1], 1.0, 1e-12);
  }
}

TEST(TimeBoundedUntil, HugeBoundIsACleanErrorNotZero) {
  // lambda*t = 1e20 is past 2^53 (and past 2^64): the Fox-Glynn window
  // used to come out empty and the checker printed 0 for a sure event.
  const Mrm m = two_state(1.0);
  const Checker c(m);
  EXPECT_THROW((void)c.values(*parse_formula("P=? [ F[0,1e20] goal ]")),
               NumericalError);
}

TEST(TimeBoundedUntil, ErlangHittingTime) {
  // Pure death chain from state 3: time to reach "dead" is Erlang(3, mu).
  const double mu = 2.0;
  const Mrm m = pure_death_mrm(4, mu);
  const Checker c(m);
  const double t = 1.25;
  const auto probs =
      c.values(*parse_formula("P=? [ F[0,1.25] dead ]"));
  const double x = mu * t;
  const double erlang3 = 1.0 - std::exp(-x) * (1.0 + x + x * x / 2.0);
  EXPECT_NEAR(probs[3], erlang3, 1e-9);
  const double erlang1 = 1.0 - std::exp(-x);
  EXPECT_NEAR(probs[1], erlang1, 1e-9);
}

TEST(TimeBoundedUntil, ForbiddenStatesAbsorbFailures) {
  // 0 -> 1 -> 2 with 1 not allowed: the only way to satisfy safe U goal is
  // to be at the goal already, so probability from 0 is 0 for every bound.
  CsrBuilder b(3, 3);
  b.add(0, 1, 5.0);
  b.add(1, 2, 5.0);
  Labelling l(3);
  l.add_label(0, "safe");
  l.add_label(2, "goal");
  const Mrm m(Ctmc(b.build()), {0.0, 0.0, 0.0}, std::move(l), 0);
  const auto probs = Checker(m).values(*parse_formula("P=? [ safe U[0,9] goal ]"));
  EXPECT_NEAR(probs[0], 0.0, 1e-12);
}

TEST(TimeBoundedUntil, MonotoneInTheBound) {
  const Mrm m = birth_death_mrm(5, 2.0, 1.0);
  const Checker c(m);
  double last = -1.0;
  for (double t : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    const auto probs = c.values(*parse_formula(
        "P=? [ F[0," + std::to_string(t) + "] full ]"));
    EXPECT_GE(probs[0] + 1e-12, last);
    last = probs[0];
  }
}

TEST(TimeBoundedUntil, ConvergesToUnboundedUntil) {
  const Mrm m = birth_death_mrm(4, 2.0, 1.0);
  const Checker c(m);
  const auto bounded = c.values(*parse_formula("P=? [ F[0,200] full ]"));
  const auto unbounded = c.values(*parse_formula("P=? [ F full ]"));
  for (std::size_t s = 0; s < m.num_states(); ++s)
    EXPECT_NEAR(bounded[s], unbounded[s], 1e-7);
}

TEST(TimeBoundedUntil, ZeroBoundIsStateMembership) {
  const Mrm m = two_state(1.0);
  const auto probs = Checker(m).values(*parse_formula("P=? [ F[0,0] goal ]"));
  EXPECT_DOUBLE_EQ(probs[0], 0.0);
  EXPECT_DOUBLE_EQ(probs[1], 1.0);
}

// --- general [t1, t2] intervals (the implemented extension) -------------

TEST(TimeIntervalUntil, PointIntervalIsTransientOccupancy) {
  // F[t,t] goal == being at the goal at time t (with true as lhs).
  const double a = 1.3;
  const Mrm m = two_state(a);
  const double t = 0.8;
  const auto probs = Checker(m).values(*parse_formula("P=? [ F[0.8,0.8] goal ]"));
  EXPECT_NEAR(probs[0], 1.0 - std::exp(-a * t), 1e-9);
}

TEST(TimeIntervalUntil, DeferredWindowMatchesDifferenceOfCdfs) {
  // For the 2-state chain, reaching the (absorbing) goal within [t1, t2]
  // means T <= t2 where T~Exp(a)... but with lhs=true the goal only needs
  // to hold somewhere in [t1, t2]; since it is absorbing this equals
  // Pr{T <= t2} = 1 - e^{-a t2}.
  const double a = 0.9;
  const Mrm m = two_state(a);
  const auto probs = Checker(m).values(*parse_formula("P=? [ F[1,2] goal ]"));
  EXPECT_NEAR(probs[0], 1.0 - std::exp(-a * 2.0), 1e-9);
}

TEST(TimeIntervalUntil, PhiMustHoldUpToTheWindow) {
  // safe U[t1,t2] goal where the path leaves "safe" early: 0 -> 1(goal).
  // From 0 the formula needs 0 to stay safe until t1; 0 is safe, but if
  // the jump to the goal happens before t1 the path sits at the goal
  // (which is not safe) before the window opens => those runs fail.
  const double a = 1.1;
  CsrBuilder b(2, 2);
  b.add(0, 1, a);
  Labelling l(2);
  l.add_label(0, "safe");
  l.add_label(1, "goal");
  const Mrm m(Ctmc(b.build()), {0.0, 0.0}, std::move(l), 0);
  const double t1 = 0.5, t2 = 1.5;
  const auto probs =
      Checker(m).values(*parse_formula("P=? [ safe U[0.5,1.5] goal ]"));
  // Jump must fall inside [t1, t2]: e^{-a t1} - e^{-a t2}.
  EXPECT_NEAR(probs[0], std::exp(-a * t1) - std::exp(-a * t2), 1e-9);
}

TEST(TimeIntervalUntil, NotPhiStartStatesGetZero) {
  const Mrm m = two_state(1.0);
  // Lhs "goal": state 0 is not in Sat(goal), so with a deferred window the
  // probability from 0 is 0.
  const auto probs = Checker(m).values(*parse_formula("P=? [ goal U[1,2] goal ]"));
  EXPECT_DOUBLE_EQ(probs[0], 0.0);
  EXPECT_NEAR(probs[1], 1.0, 1e-9);
}

}  // namespace
}  // namespace csrl
