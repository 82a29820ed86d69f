#include "ctmc/ctmc.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace csrl {

namespace {

/// Contract helper: every row of `m` sums to 1 within `tol` with
/// non-negative entries.
[[maybe_unused]] bool rows_stochastic(const CsrMatrix& m, double tol) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double sum = 0.0;
    for (const auto& e : m.row(r)) {
      if (!(e.value >= 0.0)) return false;
      sum += e.value;
    }
    if (std::abs(sum - 1.0) > tol) return false;
  }
  return true;
}

}  // namespace

Ctmc::Ctmc(CsrMatrix rates) : rates_(std::move(rates)) {
  if (rates_.rows() != rates_.cols())
    throw ModelError("Ctmc: rate matrix must be square");
  for (std::size_t s = 0; s < rates_.rows(); ++s)
    for (const auto& e : rates_.row(s))
      if (!(e.value >= 0.0) || !std::isfinite(e.value))
        throw ModelError("Ctmc: negative or non-finite rate at (" +
                         std::to_string(s) + ", " + std::to_string(e.col) + ")");
  exit_rates_ = rates_.row_sums();
  max_exit_rate_ = exit_rates_.empty()
                       ? 0.0
                       : *std::max_element(exit_rates_.begin(), exit_rates_.end());
}

CsrMatrix Ctmc::embedded_dtmc() const {
  CsrBuilder b(num_states(), num_states());
  for (std::size_t s = 0; s < num_states(); ++s) {
    if (is_absorbing(s)) {
      b.add(s, s, 1.0);
      continue;
    }
    for (const auto& e : rates_.row(s)) b.add(s, e.col, e.value / exit_rates_[s]);
  }
  CsrMatrix p = b.build();
  CSRL_CONTRACT(rows_stochastic(p, 1e-12),
                "Ctmc::embedded_dtmc: a row of P = R(s,.)/E(s) does not sum "
                "to 1 (tolerance 1e-12)");
  return p;
}

CsrMatrix Ctmc::uniformised_dtmc(double lambda) const {
  if (!(lambda > 0.0))
    throw ModelError("Ctmc::uniformised_dtmc: lambda must be positive");
  // A tiny relative slack absorbs floating-point noise in callers that pass
  // exactly max_exit_rate().
  if (lambda < max_exit_rate_ * (1.0 - 1e-12))
    throw ModelError("Ctmc::uniformised_dtmc: lambda below max exit rate");
  CsrBuilder b(num_states(), num_states());
  for (std::size_t s = 0; s < num_states(); ++s) {
    for (const auto& e : rates_.row(s)) b.add(s, e.col, e.value / lambda);
    const double self = 1.0 - exit_rates_[s] / lambda;
    if (self > 0.0) b.add(s, s, self);
  }
  CsrMatrix p = b.build();
  // The self-loop complement can cancel to ~E(s)/lambda * ulp below 1;
  // 1e-12 absorbs that while still catching any real defect.
  CSRL_CONTRACT(rows_stochastic(p, 1e-12),
                "Ctmc::uniformised_dtmc: a row of P = I + Q/lambda does not "
                "sum to 1 at lambda = " + std::to_string(lambda));
  return p;
}

}  // namespace csrl
