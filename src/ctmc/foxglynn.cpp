#include "ctmc/foxglynn.hpp"

#include <cmath>
#include <cstdio>
#include <deque>
#include <string>

#include "obs/obs.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace csrl {

namespace {

/// Round-trip text for error messages (std::to_string prints 1e-16 as
/// 0.000000).
std::string show(double x) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", x);
  return buffer;
}

}  // namespace

double poisson_pmf(std::size_t n, double lambda) {
  if (lambda < 0.0) throw NumericalError("poisson_pmf: negative rate");
  if (lambda == 0.0) return n == 0 ? 1.0 : 0.0;
  const double x = static_cast<double>(n);
  // The textbook log-space form -lambda + n log(lambda) - lgamma(n + 1)
  // cancels three terms of magnitude ~n log n down to ~log(pmf); near the
  // mode of a large-lambda Poisson that costs ~n log(n) * ulp of absolute
  // log error, i.e. a ~1e-12 *relative* error at lambda ~ 2000 — enough
  // to void tight truncation guarantees built on these weights.  For
  // n >= 32 rearrange via Stirling so every term is O(1) or proportional
  // to the small quantity d = lambda - n:
  //     log pmf = [n log1p(d/n) - d] - log(sqrt(2 pi n)) - stirling(n)
  // which is cancellation-free for every lambda (for n < 32 lgamma is
  // small and the direct form is already accurate).
  if (x < 32.0)
    return std::exp(-lambda + x * std::log(lambda) - lgamma_safe(x + 1.0));
  const double d = lambda - x;
  const double core = x * std::log1p(d / x) - d;
  const double x2 = x * x;
  const double stirling =
      (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * x2)) / x2) / x;
  constexpr double kHalfLog2Pi = 0.91893853320467274178;  // log(2 pi) / 2
  return std::exp(core - 0.5 * std::log(x) - kHalfLog2Pi - stirling);
}

PoissonWeights poisson_weights(double lambda_t, double epsilon) {
  if (!(lambda_t >= 0.0))
    throw NumericalError("poisson_weights: negative lambda*t");
  if (!(epsilon > 0.0 && epsilon < 1.0))
    throw NumericalError("poisson_weights: epsilon must be in (0, 1)");
  if (epsilon < kMinPoissonEpsilon)
    throw NumericalError("poisson_weights: epsilon = " + show(epsilon) +
                         " is below the floor " + show(kMinPoissonEpsilon) +
                         "; a tighter tail mass cannot be certified");
  // The window walks integer indices outward from floor(lambda_t).  Above
  // 2^53 doubles no longer hold every integer, so that walk is inexact
  // (and past 2^64 the size_t conversion is undefined): refuse instead of
  // returning a window with the wrong mass.
  constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53
  if (lambda_t > kMaxExactInteger)
    throw NumericalError("poisson_weights: lambda*t = " +
                         std::to_string(lambda_t) +
                         " exceeds 2^53; the time bound is too large for "
                         "uniformisation");

  CSRL_SPAN("ctmc/foxglynn/window");
  PoissonWeights result;
  if (lambda_t == 0.0) {
    result.left = result.right = 0;
    result.weights = {1.0};
    result.total = 1.0;
    CSRL_COUNT("foxglynn/windows", 1);
    CSRL_GAUGE("foxglynn/window_left", 0.0);
    CSRL_GAUGE("foxglynn/window_right", 0.0);
    CSRL_HIST("foxglynn/window_width", 1.0);
    return result;
  }

  // Grow the window outwards from the mode, always annexing the heavier
  // neighbour, until the captured mass reaches 1 - epsilon.  Poisson pmfs
  // are unimodal, so this yields the smallest such window.  The running
  // total uses Kahan compensation: a plain sum of the ~sqrt(lambda_t)
  // window terms drifts by ~n*ulp, which for tight epsilon (1e-12 at
  // lambda_t in the thousands) exceeds epsilon itself and would leave the
  // window short of its guaranteed mass no matter how far it grows.
  const auto mode = static_cast<std::size_t>(std::floor(lambda_t));
  std::deque<double> window{poisson_pmf(mode, lambda_t)};
  std::size_t left = mode;
  std::size_t right = mode;
  double total = window.front();
  double carry = 0.0;  // Kahan compensation term for `total`
  const auto add_to_total = [&total, &carry](double term) {
    const double y = term - carry;
    const double t = total + y;
    carry = (t - total) - y;
    total = t;
  };
  double below = left == 0 ? 0.0 : window.front() * static_cast<double>(left) / lambda_t;
  double above = window.back() * lambda_t / static_cast<double>(right + 1);

  const double target = 1.0 - epsilon;
  while (total < target) {
    const bool can_go_down = left > 0;
    if (can_go_down && below >= above) {
      window.push_front(below);
      add_to_total(below);
      --left;
      below = left == 0 ? 0.0
                        : window.front() * static_cast<double>(left) / lambda_t;
    } else {
      window.push_back(above);
      add_to_total(above);
      ++right;
      above = window.back() * lambda_t / static_cast<double>(right + 1);
      if (above == 0.0 && (!can_go_down || below == 0.0)) break;  // underflow floor
    }
  }

  // The window must really hold >= 1 - epsilon of the Poisson mass:
  // otherwise every truncation-error bound built on it is void.  The
  // check is O(1), so it holds in every build.
  if (!(total >= target))
    throw NumericalError(
        "poisson_weights: window total " + show(total) +
        " falls short of 1 - epsilon for lambda*t = " + show(lambda_t) +
        ", epsilon = " + show(epsilon));

  result.left = left;
  result.right = right;
  result.weights.assign(window.begin(), window.end());
  result.total = total;
  // Normalisation contract: the total must never exceed 1 by more than
  // accumulated rounding, and each weight must be a valid probability.
  CSRL_CONTRACT(
      [&] {
        if (result.weights.size() != result.right - result.left + 1)
          return false;
        for (double w : result.weights)
          if (!(w >= 0.0) || !(w <= 1.0) || !std::isfinite(w)) return false;
        return result.total <= 1.0 + 1e-12;
      }(),
      "poisson_weights: window [" + std::to_string(result.left) + ", " +
          std::to_string(result.right) + "] with total " +
          std::to_string(result.total) + " violates normalisation for "
          "lambda*t = " + std::to_string(lambda_t) + ", epsilon = " +
          std::to_string(epsilon));
  CSRL_COUNT("foxglynn/windows", 1);
  CSRL_GAUGE("foxglynn/window_left", static_cast<double>(result.left));
  CSRL_GAUGE("foxglynn/window_right", static_cast<double>(result.right));
  CSRL_HIST("foxglynn/window_width",
            static_cast<double>(result.right - result.left + 1));
  return result;
}

}  // namespace csrl
