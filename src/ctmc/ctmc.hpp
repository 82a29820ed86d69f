// Continuous-time Markov chains (Section 2.1 of the paper).
//
// A CTMC is represented by its rate matrix R: R(s, s') > 0 is the rate of
// the exponential transition from s to s'.  The exit rate E(s) is the sum
// of row s; the infinitesimal generator is Q = R - diag(E).  Following the
// paper we keep R (not Q) as the primary representation — self-loop rates
// R(s, s) are permitted and observable by the CSRL next operator even
// though they cancel in Q.
#pragma once

#include <cstddef>
#include <vector>

#include "matrix/csr.hpp"

namespace csrl {

/// A finite-state continuous-time Markov chain.
class Ctmc {
 public:
  /// Empty chain (0 states).
  Ctmc() = default;

  /// Build from a rate matrix.  Validates: square, all rates finite and
  /// non-negative.
  explicit Ctmc(CsrMatrix rates);

  std::size_t num_states() const { return rates_.rows(); }

  const CsrMatrix& rates() const { return rates_; }

  /// Total rate E(s) of leaving state s (including any self-loop rate).
  double exit_rate(std::size_t s) const { return exit_rates_[s]; }

  /// max_s E(s); the minimum admissible uniformisation rate.
  double max_exit_rate() const { return max_exit_rate_; }

  /// True if no transition leaves s (E(s) = 0).
  bool is_absorbing(std::size_t s) const { return exit_rates_[s] == 0.0; }

  /// Embedded jump chain: P(s, s') = R(s, s') / E(s); absorbing states get
  /// a probability-1 self-loop so that P is stochastic.
  CsrMatrix embedded_dtmc() const;

  /// Uniformised DTMC P = I + Q / lambda.  Requires lambda >= max exit
  /// rate (throws ModelError otherwise) and lambda > 0.
  CsrMatrix uniformised_dtmc(double lambda) const;

 private:
  CsrMatrix rates_;
  std::vector<double> exit_rates_;
  double max_exit_rate_ = 0.0;
};

}  // namespace csrl
