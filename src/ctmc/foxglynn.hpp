// Truncated Poisson weights for uniformisation (Fox-Glynn style).
//
// Uniformisation (Jensen [17], Gross & Miller [12]) expresses transient
// CTMC probabilities as a Poisson-weighted sum over powers of the
// uniformised DTMC:
//
//     pi(t) = sum_{n >= 0} e^{-lambda t} (lambda t)^n / n!  *  pi(0) P^n.
//
// PoissonWeights computes a window [left, right] of Poisson(lambda t)
// probabilities whose total mass is at least 1 - epsilon, so truncating
// the series to that window bounds the error by epsilon (the summands are
// bounded by the weights because ||pi P^n||_1 <= 1).
//
// The classic Fox-Glynn algorithm additionally scales weights to dodge
// underflow for extreme lambda*t; we compute the anchor weight in log
// space (lgamma), which is underflow-safe for every realistic lambda*t
// (individual Poisson probabilities near the mode behave like
// 1/sqrt(2 pi lambda t) and stay far above DBL_MIN) and keeps the code
// auditable.
#pragma once

#include <cstddef>
#include <vector>

namespace csrl {

/// A truncated window of Poisson probabilities.
struct PoissonWeights {
  /// Smallest retained number of jumps.
  std::size_t left = 0;
  /// Largest retained number of jumps.
  std::size_t right = 0;
  /// weights[i] = Poisson pmf at (left + i).
  std::vector<double> weights;
  /// Sum of the retained weights; >= 1 - epsilon by construction.
  double total = 0.0;

  /// Pmf at n jumps; zero outside the window.
  double weight(std::size_t n) const {
    if (n < left || n > right) return 0.0;
    return weights[n - left];
  }
};

/// Single Poisson pmf value e^{-lambda} lambda^n / n!, evaluated stably in
/// log space.  Exposed for tests and for the next-operator closed forms.
double poisson_pmf(std::size_t n, double lambda);

/// Smallest tail mass poisson_weights accepts.  The window's Kahan-summed
/// total carries a few ulps of 1 of rounding, so a tighter epsilon cannot
/// be certified: the walk would run out to the underflow floor (1.5e6
/// weights at lambda_t = 1e6 and epsilon = 1e-16) and still fall short.
inline constexpr double kMinPoissonEpsilon = 1e-15;

/// Compute the truncation window for Poisson(lambda_t) with tail mass at
/// most `epsilon`.  Requires lambda_t >= 0 and
/// kMinPoissonEpsilon <= epsilon < 1.  For lambda_t == 0 the window is
/// {0} with weight 1.  Throws NumericalError for arguments outside those
/// ranges and whenever the window's total falls short of 1 - epsilon.
PoissonWeights poisson_weights(double lambda_t, double epsilon);

}  // namespace csrl
