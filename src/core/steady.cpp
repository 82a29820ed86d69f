// Long-run averages: the steady-state operator (following [2]; the paper
// omits it from its exposition but the logic and our checker support it)
// and the long-run reward rate R=? [ S ].
//
// For each start state s the long-run average of a per-state weight w is
//
//   sum_B  Pr{reach BSCC B from s} * sum_{s' in B} pi_B(s') w(s'),
//
// where pi_B is the stationary distribution of the chain restricted to
// the bottom strongly connected component B.  The indicator of Phi gives
// the long-run probability of sitting in Phi; the effective reward rates
// give the long-run reward rate.
#include "core/checker.hpp"
#include "ctmc/graph.hpp"
#include "ctmc/stationary.hpp"

namespace csrl {

std::vector<double> Checker::long_run_average(
    const std::vector<double>& weight) const {
  const std::size_t n = model_->num_states();
  const std::vector<StateSet> bsccs = bottom_sccs(model_->rates());
  const StateSet everything(n, /*filled=*/true);

  std::vector<double> result(n, 0.0);
  for (const StateSet& bscc : bsccs) {
    const std::vector<std::size_t> members = bscc.members();
    const std::vector<double> pi =
        component_stationary(model_->chain(), members, options_.solver);

    double mass = 0.0;
    for (std::size_t i = 0; i < members.size(); ++i)
      mass += pi[i] * weight[members[i]];
    if (mass == 0.0) continue;

    // Pr{eventually absorbed in this BSCC}, for every start state.
    const std::vector<double> reach = unbounded_until(everything, bscc);
    for (std::size_t s = 0; s < n; ++s) result[s] += reach[s] * mass;
  }
  return result;
}

}  // namespace csrl
