#include "ctmc/uniformisation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "final_state_oracle.hpp"
#include "util/error.hpp"
#include "util/state_set.hpp"

namespace csrl {
namespace {

/// 2-state chain 0 -> 1 at rate a, 1 -> 0 at rate b has the closed-form
/// transient probability (starting in 0):
///   P00(t) = b/(a+b) + a/(a+b) e^{-(a+b)t}.
double p00(double a, double b, double t) {
  return b / (a + b) + a / (a + b) * std::exp(-(a + b) * t);
}

Ctmc flip_flop(double a, double b) {
  CsrBuilder m(2, 2);
  m.add(0, 1, a);
  m.add(1, 0, b);
  return Ctmc(m.build());
}

// The TransientDistribution cases read the forward distribution from
// backward runs, one per final state (oracle::per_final_state), or check
// the backward entry points directly.

TEST(TransientDistribution, MatchesTwoStateClosedForm) {
  const double a = 2.0, b = 0.5;
  const Ctmc chain = flip_flop(a, b);
  const std::vector<double> initial{1.0, 0.0};
  for (double t : {0.1, 1.0, 3.0, 10.0}) {
    const std::vector<double> pi = oracle::per_final_state(chain, initial, t);
    EXPECT_NEAR(pi[0], p00(a, b, t), 1e-9) << "t=" << t;
    EXPECT_NEAR(pi[0] + pi[1], 1.0, 1e-9);
  }
}

TEST(TransientDistribution, TimeZeroReturnsInitial) {
  // At t = 0 every entry point returns its terminal vector unchanged.
  const Ctmc chain = flip_flop(1.0, 1.0);
  const std::vector<double> terminal{0.3, 0.7};
  EXPECT_EQ(transient_backward(chain, terminal, 0.0), terminal);
  StateSet target(2);
  target.insert(1);
  EXPECT_EQ(transient_reach(chain, target, 0.0), target.indicator());
  const std::vector<double> times{0.0, 0.0};
  for (const auto& u : transient_reach_batch(chain, target, times))
    EXPECT_EQ(u, target.indicator());
}

TEST(TransientDistribution, TinyLambdaTIsSafeAndNearInitial) {
  // Regression: the series accumulator must not read weights[0] blindly —
  // a (near-)degenerate Fox-Glynn window for pathologically small
  // lambda*t has left == 0 but may carry (almost) no probability beyond
  // the anchor.  A tiny horizon must neither crash nor move mass.
  const Ctmc chain = flip_flop(3.0, 0.25);
  const std::vector<double> terminal{0.6, 0.4};
  for (double t : {1e-300, 1e-30, 1e-15, 1e-9}) {
    const std::vector<double> u = transient_backward(chain, terminal, t);
    ASSERT_EQ(u.size(), 2u) << "t=" << t;
    EXPECT_NEAR(u[0], terminal[0], 1e-8) << "t=" << t;
    EXPECT_NEAR(u[1], terminal[1], 1e-8) << "t=" << t;
  }
  const std::vector<double> indicator{1.0, 0.0};
  const std::vector<double> u = transient_backward(chain, indicator, 1e-300);
  EXPECT_NEAR(u[0], 1.0, 1e-8);
  EXPECT_NEAR(u[1], 0.0, 1e-8);
}

TEST(TransientDistribution, PureDeathIsErlang) {
  // 3 -> 2 -> 1 -> 0 at rate mu: P{X_t = 0 | X_0 = 3} = P{Erlang(3,mu) <= t}.
  const double mu = 1.3;
  CsrBuilder b(4, 4);
  for (std::size_t i = 1; i < 4; ++i) b.add(i, i - 1, mu);
  const Ctmc chain(b.build());
  StateSet dead(4);
  dead.insert(0);
  const double t = 2.0;
  const std::vector<double> u = transient_reach(chain, dead, t);
  const double x = mu * t;
  const double erlang3_cdf = 1.0 - std::exp(-x) * (1.0 + x + x * x / 2.0);
  EXPECT_NEAR(u[3], erlang3_cdf, 1e-9);
}

TEST(TransientDistribution, AllAbsorbingStaysPut) {
  const Ctmc chain{CsrMatrix(3, 3)};
  const std::vector<double> terminal{0.2, 0.3, 0.5};
  EXPECT_EQ(transient_backward(chain, terminal, 5.0), terminal);
  StateSet target(3);
  target.insert(1);
  const std::vector<double> times{1.0, 5.0};
  for (const auto& u : transient_reach_batch(chain, target, times))
    EXPECT_EQ(u, target.indicator());
}

TEST(TransientDistribution, SubStochasticInitialAllowed) {
  const Ctmc chain = flip_flop(1.0, 1.0);
  const std::vector<double> initial{0.5, 0.0};
  const std::vector<double> pi = oracle::per_final_state(chain, initial, 1.0);
  EXPECT_NEAR(pi[0] + pi[1], 0.5, 1e-9);
}

TEST(TransientDistribution, InvalidInputsThrow) {
  const Ctmc chain = flip_flop(1.0, 1.0);
  const std::vector<double> terminal{1.0, 0.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double t : {-1.0, nan, inf})
    EXPECT_THROW((void)transient_backward(chain, terminal, t), ModelError)
        << "t=" << t;
  const std::vector<double> short_vec{1.0};
  EXPECT_THROW((void)transient_backward(chain, short_vec, 1.0), ModelError);
  StateSet target(2);
  target.insert(0);
  const std::vector<double> times{1.0, -1.0};
  EXPECT_THROW((void)transient_reach_batch(chain, target, times), ModelError);
}

TEST(TransientDistribution, SteadyStateDetectionMatchesPlainSeries) {
  // Long horizon: detection should kick in and still give the right
  // answer, b/(a+b) from either start state.
  const double a = 2.0, b = 0.5;
  const Ctmc chain = flip_flop(a, b);
  StateSet target(2);
  target.insert(0);
  TransientOptions with;
  with.steady_state_detection = true;
  TransientOptions without;
  without.steady_state_detection = false;
  const double t = 400.0;
  const std::vector<double> u_with = transient_reach(chain, target, t, with);
  const std::vector<double> u_without =
      transient_reach(chain, target, t, without);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_NEAR(u_with[s], u_without[s], 1e-8) << "s=" << s;
    EXPECT_NEAR(u_with[s], b / (a + b), 1e-8) << "s=" << s;
  }
}

TEST(TransientReach, MatchesClosedFormForAllStartStates) {
  const double a = 2.0, b = 0.5;
  const Ctmc chain = flip_flop(a, b);
  StateSet target(2);
  target.insert(0);
  const double t = 0.7;
  const std::vector<double> u = transient_reach(chain, target, t);
  EXPECT_NEAR(u[0], p00(a, b, t), 1e-9);
  // By symmetry: starting from 1, P10(t) = b/(a+b) (1 - e^{-(a+b)t}).
  const double p10 = b / (a + b) * (1.0 - std::exp(-(a + b) * t));
  EXPECT_NEAR(u[1], p10, 1e-9);
}

TEST(TransientBackward, LinearInTerminalVector) {
  const Ctmc chain = flip_flop(1.0, 2.0);
  const std::vector<double> v1{1.0, 0.0};
  const std::vector<double> v2{0.0, 1.0};
  const std::vector<double> v3{2.0, 3.0};
  const double t = 1.1;
  const auto u1 = transient_backward(chain, v1, t);
  const auto u2 = transient_backward(chain, v2, t);
  const auto u3 = transient_backward(chain, v3, t);
  for (std::size_t s = 0; s < 2; ++s)
    EXPECT_NEAR(u3[s], 2.0 * u1[s] + 3.0 * u2[s], 1e-9);
}

TEST(TransientReach, UniverseMismatchThrows) {
  const Ctmc chain = flip_flop(1.0, 1.0);
  EXPECT_THROW((void)transient_reach(chain, StateSet(3), 1.0), ModelError);
}

}  // namespace
}  // namespace csrl
