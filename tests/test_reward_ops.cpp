#include "core/reward_ops.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "models/synthetic.hpp"
#include "pure_death_mrm.hpp"
#include "util/error.hpp"

namespace csrl {
namespace {

Mrm constant_reward_model(double rho) {
  CsrBuilder b(2, 2);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  return Mrm(Ctmc(b.build()), {rho, rho}, Labelling(2), 0);
}

TEST(ExpectedAccumulatedReward, ConstantRewardIsRhoTimesT) {
  // If every state earns rho, then Y_t = rho * t deterministically.
  const Mrm m = constant_reward_model(2.5);
  for (double t : {0.5, 3.0, 10.0})
    EXPECT_NEAR(expected_accumulated_reward(m, t), 2.5 * t, 1e-8) << t;
}

TEST(ExpectedAccumulatedReward, ZeroAtTimeZero) {
  const Mrm m = constant_reward_model(1.0);
  EXPECT_DOUBLE_EQ(expected_accumulated_reward(m, 0.0), 0.0);
}

TEST(ExpectedAccumulatedReward, TwoStateClosedForm) {
  // 0 (reward 1) -> 1 (reward 0, absorbing) at rate a:
  // E[Y_t] = E[min(T, t)] = (1 - e^{-a t}) / a.
  const double a = 2.0;
  CsrBuilder b(2, 2);
  b.add(0, 1, a);
  const Mrm m(Ctmc(b.build()), {1.0, 0.0}, Labelling(2), 0);
  for (double t : {0.3, 1.0, 5.0})
    EXPECT_NEAR(expected_accumulated_reward(m, t), (1.0 - std::exp(-a * t)) / a,
                1e-8)
        << t;
}

TEST(ExpectedAccumulatedReward, MonotoneAndConcaveForDyingRewards) {
  const Mrm m = pure_death_mrm(4, 1.0);
  double last = 0.0;
  for (double t : {0.5, 1.0, 2.0, 4.0}) {
    const double v = expected_accumulated_reward(m, t);
    EXPECT_GT(v, last);
    last = v;
  }
  // Total reward is bounded by E[sum of sojourn rewards to absorption].
  EXPECT_LT(last, 3.0 / 1.0 + 2.0 / 1.0 + 1.0 / 1.0 + 1e-6);
}

TEST(ExpectedAccumulatedReward, NegativeTimeThrows) {
  const Mrm m = constant_reward_model(1.0);
  EXPECT_THROW((void)expected_accumulated_reward(m, -1.0), ModelError);
}

TEST(ExpectedInstantaneousReward, TracksTransientDistribution) {
  // 0 (reward 1) -> 1 (reward 0) at rate a: E[rho(X_t)] = e^{-a t}.
  const double a = 1.5;
  CsrBuilder b(2, 2);
  b.add(0, 1, a);
  const Mrm m(Ctmc(b.build()), {1.0, 0.0}, Labelling(2), 0);
  for (double t : {0.0, 0.5, 2.0})
    EXPECT_NEAR(
        expected_instantaneous_reward_all_starts(m, t)[m.initial_state()],
        std::exp(-a * t), 1e-9)
        << t;
}

TEST(ExpectedInstantaneousReward, DerivativeOfAccumulatedReward) {
  // d/dt E[Y_t] = E[rho(X_t)]: check by finite differences.
  const Mrm m = birth_death_mrm(5, 1.0, 2.0);
  const double t = 1.0, h = 1e-4;
  const double derivative = (expected_accumulated_reward(m, t + h) -
                             expected_accumulated_reward(m, t - h)) /
                            (2.0 * h);
  EXPECT_NEAR(derivative,
              expected_instantaneous_reward_all_starts(m, t)[m.initial_state()],
              1e-5);
}

}  // namespace
}  // namespace csrl
