// Test oracle: the plain single-start Tijms-Veldman sweep (Section 4.3).
//
// DiscretisationEngine runs one lane-interleaved, pool-parallel sweep for
// every lattice and start-state group.  This is the textbook form: one
// serial F recursion per (t, r) point from one initial distribution,
// with F exactly as wide as that point's reward bound.  The
// per-cell arithmetic is the engine's, so its results must match the
// engine's lattices bit for bit — which is what makes it a differential
// oracle for the harvesting, lane interleaving and widening the engine
// adds on top.  Trivial (t, r) pairs resolve through the engines' shared
// peel_trivial_cells.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "core/engines/engine.hpp"
#include "mrm/mrm.hpp"
#include "util/error.hpp"
#include "util/state_set.hpp"

namespace csrl::oracle {

inline std::size_t tv_natural(double x, double tol) {
  const double rounded = std::round(x);
  if (!(rounded >= 0.0) || std::abs(x - rounded) > tol)
    throw ModelError("tijms_veldman oracle: " + std::to_string(x) +
                     " is not a non-negative integer");
  return static_cast<std::size_t>(rounded);
}

/// Pr{Y_t <= r, X_t = j} for every j, from the model's initial
/// distribution, with discretisation step d.
inline JointDistribution tijms_veldman_joint_distribution(const Mrm& model,
                                                          double d, double t,
                                                          double r) {
  std::vector<JointDistribution> trivial;
  if (peel_trivial_cells(model, {&t, 1}, {&r, 1}, trivial).empty())
    return trivial.front();
  JointDistribution result;

  const std::size_t n = model.num_states();
  std::vector<std::size_t> rho(n);
  for (std::size_t s = 0; s < n; ++s)
    rho[s] = tv_natural(model.reward(s), 1e-9);
  const std::size_t total_steps = tv_natural(t / d, 1e-6);
  const std::size_t reward_cells = tv_natural(r / d, 1e-6);
  if (total_steps == 0)
    throw ModelError("tijms_veldman oracle: t must be at least one step d");

  // F[s * width + k]: density of state s at reward index k.
  const std::size_t width = reward_cells + 1;
  std::vector<double> current(n * width, 0.0);
  std::vector<double> next(n * width, 0.0);

  // F^1: one step of duration d from the initial distribution.
  for (std::size_t s = 0; s < n; ++s) {
    const double mass = model.initial_distribution()[s];
    if (mass == 0.0) continue;
    if (rho[s] <= reward_cells) current[s * width + rho[s]] += mass / d;
  }

  // F^{j+1}(s, k) = F^j(s, k - rho(s)) (1 - E(s) d)
  //               + sum_{s'} F^j(s', k - rho(s') - iota(s', s)/d) R(s', s) d
  const CsrMatrix incoming = model.rates().transposed();
  for (std::size_t j = 1; j < total_steps; ++j) {
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t s = 0; s < n; ++s) {
      const double stay = 1.0 - model.chain().exit_rate(s) * d;
      for (std::size_t k = rho[s]; k <= reward_cells; ++k)
        next[s * width + k] = current[s * width + k - rho[s]] * stay;
      for (const auto& e : incoming.row(s)) {
        std::size_t shift = rho[e.col];
        if (model.has_impulse_rewards() && model.impulse(e.col, s) > 0.0)
          shift += tv_natural(model.impulse(e.col, s) / d, 1e-6);
        const double weight = e.value * d;
        for (std::size_t k = shift; k <= reward_cells; ++k)
          next[s * width + k] += current[e.col * width + k - shift] * weight;
      }
    }
    current.swap(next);
  }

  result.per_state.assign(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    double acc = 0.0;
    for (std::size_t k = 0; k <= reward_cells; ++k)
      acc += current[s * width + k];
    result.per_state[s] = acc * d;
  }
  result.steps = total_steps;
  return result;
}

/// Pr_s{Y_t <= r, X_t in target} for every start state s: one forward
/// sweep per start state from its point-mass distribution.
inline std::vector<double> tijms_veldman_all_starts(const Mrm& model,
                                                    double d, double t,
                                                    double r,
                                                    const StateSet& target) {
  std::vector<double> result(model.num_states(), 0.0);
  for (std::size_t s = 0; s < model.num_states(); ++s) {
    Mrm from_s(Ctmc(model.rates()), model.rewards(), model.labelling(), s);
    if (model.has_impulse_rewards())
      from_s = from_s.with_impulses(model.impulse_rewards());
    result[s] = tijms_veldman_joint_distribution(from_s, d, t, r)
                    .probability_in(target);
  }
  return result;
}

}  // namespace csrl::oracle
