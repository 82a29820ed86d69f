#include "core/engines/erlang_engine.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "ctmc/phase_chain.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace csrl {

ErlangEngine::ErlangEngine(std::size_t phases, TransientOptions transient)
    : phases_(phases), transient_(transient) {
  if (phases_ == 0)
    throw ModelError("ErlangEngine: the number of phases must be positive");
}

std::string ErlangEngine::name() const {
  return "erlang-" + std::to_string(phases_);
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
      peel_trivial_cells(model, times, rewards, target, transient_, grid);
  if (!live.empty()) {
    CSRL_SPAN("p3/erlang/all_starts_grid");
    const std::size_t n = model.num_states();
    // Each column's batched run shares one operator stream among all of
    // its horizons (ctmc/uniformisation.cpp); a horizon adds only its n
    // phase-0 readout updates per step.  Columns cannot share a run —
    // every reward bound is its own chain.
    const std::size_t num_rewards = rewards.size();
    std::vector<std::vector<std::size_t>> columns(num_rewards);
    for (std::size_t slot : live) columns[slot % num_rewards].push_back(slot);
    std::vector<double> advance(n);
    for (std::size_t j = 0; j < num_rewards; ++j) {
      if (columns[j].empty()) continue;
      std::vector<double> horizon;
      horizon.reserve(columns[j].size());
      for (std::size_t slot : columns[j])
        horizon.push_back(times[slot / num_rewards]);
      // Each budget phase is exponential with rate k/r per unit of
      // reward: state s advances it at rate rho(s) k / r, and an impulse
      // iota crosses a Poisson(iota k / r) number of phases.
      const double phase_rate_per_reward = static_cast<double>(phases_) /
                                           rewards[j];
      for (std::size_t s = 0; s < n; ++s)
        advance[s] = model.reward(s) * phase_rate_per_reward;
      const PhaseChain chain(
          model.chain(), advance,
          model.impulse_rewards().scaled(phase_rate_per_reward), phases_);
      // A fresh start state has consumed no budget: phase 0, the lane the
      // run reads out.
      std::vector<std::vector<double>> us =
          transient_reach_batch(chain, target, horizon, transient_);
      for (std::size_t pos = 0; pos < columns[j].size(); ++pos)
        grid[columns[j][pos]] = std::move(us[pos]);
    }
  }
  validate_grid(model, times, rewards, target, grid, monotone_slack());
  return grid;
}

}  // namespace csrl
