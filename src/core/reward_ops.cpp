#include "core/reward_ops.hpp"

#include <cmath>

#include "ctmc/foxglynn.hpp"
#include "matrix/vector_ops.hpp"
#include "util/error.hpp"

namespace csrl {

std::vector<double> effective_reward_rates(const Mrm& model) {
  std::vector<double> rates = model.rewards();
  if (model.has_impulse_rewards()) {
    for (std::size_t s = 0; s < model.num_states(); ++s)
      for (const auto& e : model.impulse_rewards().row(s))
        rates[s] += model.rates().at(s, e.col) * e.value;
  }
  return rates;
}

std::vector<double> expected_instantaneous_reward_all_starts(
    const Mrm& model, double t, const TransientOptions& options) {
  return transient_backward(model.chain(), model.rewards(), t, options);
}

std::vector<double> expected_accumulated_reward_all_starts(
    const Mrm& model, double t, const TransientOptions& options) {
  const std::size_t n = model.num_states();
  if (!(t >= 0.0) || !std::isfinite(t))
    throw ModelError("expected_accumulated_reward: time must be >= 0");
  if (t == 0.0 || n == 0) return std::vector<double>(n, 0.0);

  const Ctmc& chain = model.chain();
  const std::vector<double> effective = effective_reward_rates(model);
  if (chain.max_exit_rate() == 0.0) {
    // Nothing ever moves: Y_t = rho(s) t deterministically.
    std::vector<double> result = effective;
    scale(result, t);
    return result;
  }

  const double lambda = chain.max_exit_rate();
  const CsrMatrix p = chain.uniformised_dtmc(lambda);
  const PoissonWeights weights = poisson_weights(lambda * t, options.epsilon);

  // Backward analogue of the integrated-Poisson identity: E_s[Y_t] =
  // (1/lambda) sum_n Pr{N > n} (P^n rho~)(s).
  double tail = weights.total;
  std::vector<double> v = effective;
  std::vector<double> scratch(n, 0.0);
  std::vector<double> result(n, 0.0);
  for (std::size_t step = 0; step <= weights.right; ++step) {
    tail -= weights.weight(step);
    if (tail > 0.0) axpy(tail, v, result);
    if (step < weights.right) {
      p.multiply(v, scratch);
      v.swap(scratch);
    }
  }
  scale(result, 1.0 / lambda);
  return result;
}

double expected_accumulated_reward(const Mrm& model, double t,
                                   const TransientOptions& options) {
  return dot(model.initial_distribution(),
             expected_accumulated_reward_all_starts(model, t, options));
}

}  // namespace csrl
