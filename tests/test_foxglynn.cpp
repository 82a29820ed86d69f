#include "ctmc/foxglynn.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace csrl {
namespace {

TEST(PoissonPmf, SmallValuesExact) {
  EXPECT_NEAR(poisson_pmf(0, 2.0), std::exp(-2.0), 1e-15);
  EXPECT_NEAR(poisson_pmf(1, 2.0), 2.0 * std::exp(-2.0), 1e-15);
  EXPECT_NEAR(poisson_pmf(3, 2.0), 8.0 / 6.0 * std::exp(-2.0), 1e-14);
}

TEST(PoissonPmf, ZeroRate) {
  EXPECT_DOUBLE_EQ(poisson_pmf(0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(poisson_pmf(5, 0.0), 0.0);
}

TEST(PoissonPmf, NegativeRateThrows) {
  EXPECT_THROW((void)poisson_pmf(0, -1.0), NumericalError);
}

TEST(PoissonWeights, ZeroRateWindow) {
  const PoissonWeights w = poisson_weights(0.0, 1e-6);
  EXPECT_EQ(w.left, 0u);
  EXPECT_EQ(w.right, 0u);
  EXPECT_DOUBLE_EQ(w.total, 1.0);
  EXPECT_DOUBLE_EQ(w.weight(0), 1.0);
  EXPECT_DOUBLE_EQ(w.weight(1), 0.0);
}

TEST(PoissonWeights, CapturesRequestedMass) {
  for (double lt : {0.3, 2.0, 17.0, 468.0, 5000.0}) {
    for (double eps : {1e-3, 1e-9}) {
      const PoissonWeights w = poisson_weights(lt, eps);
      EXPECT_GE(w.total, 1.0 - eps) << "lambda*t=" << lt << " eps=" << eps;
      EXPECT_LE(w.total, 1.0 + 1e-12);
    }
  }
}

TEST(PoissonWeights, WeightsMatchPmf) {
  const double lt = 31.5;
  const PoissonWeights w = poisson_weights(lt, 1e-10);
  for (std::size_t n = w.left; n <= w.right; n += 3)
    EXPECT_NEAR(w.weight(n), poisson_pmf(n, lt), 1e-14);
}

TEST(PoissonWeights, WindowBracketsMode) {
  const double lt = 468.0;
  const PoissonWeights w = poisson_weights(lt, 1e-8);
  EXPECT_LE(w.left, 468u);
  EXPECT_GE(w.right, 468u);
  // Sanity: the 1e-8 window of Poisson(468) reaches roughly 6 standard
  // deviations (sigma ~ 21.6) above the mean — the paper's Table 2 reports
  // N_eps = 594 for this very case.
  EXPECT_NEAR(static_cast<double>(w.right), 594.0, 10.0);
}

TEST(PoissonWeights, TighterEpsilonWidensWindow) {
  const PoissonWeights loose = poisson_weights(100.0, 1e-2);
  const PoissonWeights tight = poisson_weights(100.0, 1e-12);
  EXPECT_LT(tight.left, loose.left);
  EXPECT_GT(tight.right, loose.right);
}

TEST(PoissonWeights, InvalidEpsilonThrows) {
  EXPECT_THROW((void)poisson_weights(1.0, 0.0), NumericalError);
  EXPECT_THROW((void)poisson_weights(1.0, 1.0), NumericalError);
  EXPECT_THROW((void)poisson_weights(-1.0, 0.5), NumericalError);
}

TEST(PoissonWeights, OutsideWindowIsZero) {
  const PoissonWeights w = poisson_weights(50.0, 1e-4);
  ASSERT_GT(w.left, 0u);
  EXPECT_DOUBLE_EQ(w.weight(w.left - 1), 0.0);
  EXPECT_DOUBLE_EQ(w.weight(w.right + 1), 0.0);
}

// Regression: the textbook log-space pmf exp(-l + n log l - lgamma(n+1))
// cancels three terms of magnitude ~n log n, giving every weight a
// ~1.6e-12 relative bias at lambda*t = 2048.  The window then genuinely
// held less than 1 - 1e-12 of mass and the growth loop ran to the
// underflow floor chasing the deficit (window [577, 4095] instead of
// ~[1734, 2379]).  The Stirling-form pmf keeps the anchor accurate, so a
// tight-epsilon window at large lambda*t stays narrow and honest.
TEST(PoissonPmf, LargeRateAnchorAccuracy) {
  // Kahan-compensated sum over +-10 sigma: true tail mass is ~1e-23, so
  // any deviation from 1 beyond ~1e-13 is pmf bias (the old form: 1.6e-12).
  const double lt = 2048.0;
  double sum = 0.0;
  double carry = 0.0;
  for (std::size_t n = 1598; n <= 2498; ++n) {
    const double y = poisson_pmf(n, lt) - carry;
    const double t = sum + y;
    carry = (t - sum) - y;
    sum = t;
  }
  EXPECT_NEAR(sum, 1.0, 5e-13);
}

TEST(PoissonWeights, TightEpsilonAtLargeRateStaysNarrow) {
  const double lt = 2048.0;  // sigma = sqrt(2048) ~ 45
  const PoissonWeights w = poisson_weights(lt, 1e-12);
  EXPECT_GE(w.total, 1.0 - 1e-12);
  EXPECT_LE(w.total, 1.0 + 1e-12);
  // A 1e-12 window needs ~+-7.5 sigma; anything much wider means the
  // growth loop was compensating for biased weights.
  EXPECT_LT(w.right - w.left, 1000u);
}

TEST(PoissonWeights, LargeRateStaysFinite) {
  const PoissonWeights w = poisson_weights(1e6, 1e-9);
  EXPECT_GE(w.total, 1.0 - 1e-9);
  for (double v : w.weights) EXPECT_TRUE(std::isfinite(v));
}

TEST(PoissonWeights, EpsilonAtTheFloorCapturesItsMass) {
  for (double lt : {0.5, 10.0, 1e3, 1e6}) {
    const PoissonWeights w = poisson_weights(lt, kMinPoissonEpsilon);
    EXPECT_GE(w.total, 1.0 - kMinPoissonEpsilon) << "lambda*t=" << lt;
    EXPECT_LE(w.total, 1.0 + 1e-12) << "lambda*t=" << lt;
  }
}

TEST(PoissonWeights, EpsilonBelowTheFloorThrows) {
  // At 1e-16 the walk would reach the underflow floor (a 1.5e6-weight
  // window at lambda*t = 1e6) and still hold less than 1 - epsilon; it
  // is refused before the walk, at every rate.
  EXPECT_THROW((void)poisson_weights(1e6, 1e-16), NumericalError);
  EXPECT_THROW((void)poisson_weights(10.0, 1e-16), NumericalError);
  EXPECT_THROW((void)poisson_weights(0.0, 1e-300), NumericalError);
}

TEST(PoissonWeights, RateBeyondExactIntegersThrows) {
  // Above 2^53 the window's integer walk is inexact; above 2^64 the index
  // cast is undefined.  Both must be refused, not answered.
  EXPECT_NO_THROW((void)poisson_weights(1e6, 1e-6));
  EXPECT_THROW((void)poisson_weights(std::ldexp(1.0, 53) * 2.0, 1e-6),
               NumericalError);
  EXPECT_THROW((void)poisson_weights(1e20, 1e-6), NumericalError);
  EXPECT_THROW((void)poisson_weights(INFINITY, 1e-6), NumericalError);
}

}  // namespace
}  // namespace csrl
