#include "core/engines/erlang_engine.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "ctmc/foxglynn.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/workspace.hpp"

namespace csrl {

ErlangEngine::ErlangEngine(std::size_t phases, TransientOptions transient,
                           std::shared_ptr<ThreadPool> pool)
    : JointDistributionEngine(std::move(pool)),
      phases_(phases),
      transient_(transient) {
  if (phases_ == 0)
    throw ModelError("ErlangEngine: the number of phases must be positive");
}

std::string ErlangEngine::name() const {
  return "erlang-" + std::to_string(phases_);
}

Ctmc ErlangEngine::expand(const Mrm& model, double r) const {
  CSRL_SPAN("p3/erlang/expand");
  const std::size_t n = model.num_states();
  const std::size_t k = phases_;
  CSRL_GAUGE("p3/erlang/expanded_states",
             static_cast<double>(n * k + 1));
  const std::size_t exceeded = n * k;
  const double phase_rate_per_reward = static_cast<double>(k) / r;

  CsrBuilder rates(n * k + 1, n * k + 1);
  for (std::size_t s = 0; s < n; ++s) {
    const double advance = model.reward(s) * phase_rate_per_reward;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t from = s * k + i;
      for (const auto& e : model.rates().row(s)) {
        const double iota =
            model.has_impulse_rewards() ? model.impulse(s, e.col) : 0.0;
        if (iota == 0.0) {
          // Plain transitions leave the consumed reward budget untouched.
          rates.add(from, e.col * k + i, e.value);
          continue;
        }
        // An impulse iota crosses a Poisson(iota * k / r) number of budget
        // phases (the budget is a Poisson process of rate k/r along the
        // reward axis); running out of phases crosses the bound.
        const PoissonWeights jumps =
            poisson_weights(iota * phase_rate_per_reward, 1e-12);
        double mass_within = 0.0;
        for (std::size_t j = jumps.left; j <= jumps.right && i + j < k; ++j) {
          rates.add(from, e.col * k + i + j, e.value * jumps.weight(j));
          mass_within += jumps.weight(j);
        }
        const double spill = e.value * (1.0 - mass_within);
        if (spill > 0.0) rates.add(from, exceeded, spill);
      }
      // Budget phase completion; the k-th completion crosses the bound.
      if (advance > 0.0)
        rates.add(from, i + 1 < k ? from + 1 : exceeded, advance);
    }
  }
  return Ctmc(rates.build());
}

double ErlangEngine::monotone_slack() const {
  // The pseudo-Erlang error is O(1/k), degrading to O(1/sqrt(k)) at atoms
  // of Y_t (README); the monotonicity slack covers the latter.
  return 4.0 / std::sqrt(static_cast<double>(phases_)) + 1e-9;
}

std::vector<std::vector<double>> ErlangEngine::joint_probability_all_starts_grid(
    const Mrm& model, std::span<const double> times,
    std::span<const double> rewards, const StateSet& target) const {
  std::vector<std::vector<double>> grid;
  const std::vector<std::size_t> live =
      peel_trivial_cells(model, times, rewards, target, grid);
  if (!live.empty()) {
    CSRL_SPAN("p3/erlang/all_starts_grid");
    const std::size_t n = model.num_states();
    const std::size_t k = phases_;
    // The expanded chain has the same size for every reward column, so one
    // arena serves every batched transient run of the sweep: the first
    // column warms it, the rest iterate without heap traffic.  The
    // transient options' rhs_block rides along: each column's batched run
    // carries all of its live horizons as one interleaved accumulator
    // block per matrix pass (ctmc/uniformisation.cpp), so a column costs
    // about one SpMV stream regardless of how many horizons share it.
    // (Columns cannot be blocked with each other — every reward bound
    // expands to a different chain.)
    Workspace grid_workspace;
    TransientOptions transient = transient_;
    if (transient.workspace == nullptr) transient.workspace = &grid_workspace;
    const std::size_t num_rewards = rewards.size();
    std::vector<std::vector<std::size_t>> columns(num_rewards);
    for (std::size_t slot : live) columns[slot % num_rewards].push_back(slot);
    for (std::size_t j = 0; j < num_rewards; ++j) {
      if (columns[j].empty()) continue;
      std::vector<double> horizon;
      horizon.reserve(columns[j].size());
      for (std::size_t slot : columns[j])
        horizon.push_back(times[slot / num_rewards]);
      const Ctmc expanded = expand(model, rewards[j]);
      // Terminal set: any phase copy of a target state (the budget may be
      // partially consumed as long as it never ran out).
      StateSet expanded_target(expanded.num_states());
      for (std::size_t s : target.members())
        for (std::size_t i = 0; i < k; ++i) expanded_target.insert(s * k + i);
      const std::vector<std::vector<double>> us =
          transient_reach_batch(expanded, expanded_target, horizon, transient);
      // A fresh start state has consumed no budget: phase 0.
      for (std::size_t pos = 0; pos < columns[j].size(); ++pos) {
        std::vector<double>& out = grid[columns[j][pos]];
        out.assign(n, 0.0);
        for (std::size_t s = 0; s < n; ++s) out[s] = us[pos][s * k];
      }
    }
  }
  validate_grid(model, times, rewards, target, grid, monotone_slack());
  return grid;
}

}  // namespace csrl
