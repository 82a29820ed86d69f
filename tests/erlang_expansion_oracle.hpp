// Test oracle: the pseudo-Erlang lattice through the explicit expansion.
//
// The Erlang engine (core/engines/erlang_engine.hpp) never builds the
// (n*k + 1)-state chain; it runs the phase-lane form of uniformisation
// over the n-state model and promises the same bits.  This header keeps
// the explicit construction it replaces: expand() assembles the expanded
// rate matrix with CsrBuilder, state (s, i) at s * k + i and the
// "exceeded" sink at n * k, and lattice() runs transient_reach_batch on
// it per reward column and reads phase 0 — the engine's grid, computed
// the old way, for memcmp comparisons.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/engines/engine.hpp"
#include "ctmc/foxglynn.hpp"
#include "ctmc/uniformisation.hpp"
#include "mrm/mrm.hpp"
#include "util/state_set.hpp"

namespace csrl::oracle {

/// The expanded chain for Erlang order k and reward bound r.
inline Ctmc erlang_expand(const Mrm& model, double r, std::size_t k) {
  const std::size_t n = model.num_states();
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
        // phases; running out of phases crosses the bound.
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

/// The Erlang-k lattice of ErlangEngine::joint_probability_all_starts_grid
/// (times-major, every cell a per-start vector), computed on the explicit
/// expansion: one transient_reach_batch per reward column over its live
/// horizons, read at phase 0.
inline std::vector<std::vector<double>> erlang_lattice(
    const Mrm& model, std::span<const double> times,
    std::span<const double> rewards, const StateSet& target, std::size_t k,
    const TransientOptions& options = {}) {
  std::vector<std::vector<double>> grid;
  const std::vector<std::size_t> live =
      peel_trivial_cells(model, times, rewards, target, options, grid);
  const std::size_t n = model.num_states();
  const std::size_t num_rewards = rewards.size();
  for (std::size_t j = 0; j < num_rewards; ++j) {
    std::vector<std::size_t> column;
    std::vector<double> horizon;
    for (std::size_t slot : live)
      if (slot % num_rewards == j) {
        column.push_back(slot);
        horizon.push_back(times[slot / num_rewards]);
      }
    if (column.empty()) continue;
    const Ctmc expanded = erlang_expand(model, rewards[j], k);
    StateSet expanded_target(expanded.num_states());
    for (std::size_t s : target.members())
      for (std::size_t i = 0; i < k; ++i) expanded_target.insert(s * k + i);
    const std::vector<std::vector<double>> us =
        transient_reach_batch(expanded, expanded_target, horizon, options);
    for (std::size_t pos = 0; pos < column.size(); ++pos) {
      std::vector<double>& out = grid[column[pos]];
      out.assign(n, 0.0);
      for (std::size_t s = 0; s < n; ++s) out[s] = us[pos][s * k];
    }
  }
  return grid;
}

}  // namespace csrl::oracle
