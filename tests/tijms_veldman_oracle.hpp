// Test oracle: the plain forward Tijms-Veldman sweeps (Section 4.3).
//
// DiscretisationEngine answers the all-start-states shapes with one
// pool-parallel run of the adjoint (backward) recursion per lattice.
// This is the textbook form: one serial forward F recursion
// per (t, r) point from one initial distribution, with F exactly as wide
// as that point's reward bound, and one such run per start state for the
// all-starts shapes (including the general-window until the checker used
// to run state by state).  The engine's adjoint recursion sums the same
// terms in a different order, so the all-starts forms agree to rounding
// (<= 1e-12).  Trivial (t, r) pairs resolve exactly, through
// joint_distribution_trivial_case below, whose transient distributions
// come from one backward run per final state (final_state_oracle.hpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "final_state_oracle.hpp"
#include "logic/formula.hpp"
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

/// `model` with its initial distribution replaced by a point mass on s.
inline Mrm point_start(const Mrm& model, std::size_t s) {
  Mrm from_s(Ctmc(model.rates()), model.rewards(), model.labelling(), s);
  if (model.has_impulse_rewards())
    from_s = from_s.with_impulses(model.impulse_rewards());
  return from_s;
}

/// The trivial cases of Pr{Y_t <= r, X_t = j} from the initial
/// distribution; returns true and fills `out` (indexed by j) if (t, r) is
/// one.  The forward counterpart of the engines' all-starts peel.
inline bool joint_distribution_trivial_case(const Mrm& model, double t,
                                            double r,
                                            std::vector<double>& out) {
  if (!(t >= 0.0) || !std::isfinite(t))
    throw ModelError("tijms_veldman oracle: time bound must be finite, >= 0");
  if (!(r >= 0.0) || !std::isfinite(r))
    throw ModelError("tijms_veldman oracle: reward bound must be finite, >= 0");

  const std::size_t n = model.num_states();

  // At t = 0 no reward has accumulated yet, so the joint distribution is
  // the initial distribution itself.
  if (t == 0.0 || n == 0) {
    out = model.initial_distribution();
    return true;
  }

  // Without impulses Y_t <= max_reward * t on every path, so a reward
  // bound at or above that level never binds: plain transient analysis.
  if (!model.has_impulse_rewards() && r >= model.max_reward() * t) {
    out = per_final_state(model.chain(), model.initial_distribution(), t);
    return true;
  }

  // r == 0 with a binding bound: Y_t stays at zero exactly on the paths
  // that never enter a positive-reward state and never fire a
  // positive-impulse transition.  Freeze the positive-reward states and
  // reroute impulse-carrying transitions into a sink, then read off the
  // transient distribution.
  if (r == 0.0) {
    const std::size_t sink = n;
    CsrBuilder rates(n + 1, n + 1);
    for (std::size_t s = 0; s < n; ++s) {
      if (model.reward(s) > 0.0) continue;
      for (const auto& e : model.rates().row(s)) {
        const bool tainted = model.impulse(s, e.col) > 0.0;
        rates.add(s, tainted ? sink : e.col, e.value);
      }
    }
    const Ctmc frozen(rates.build());
    std::vector<double> initial = model.initial_distribution();
    initial.push_back(0.0);
    out = per_final_state(frozen, initial, t);
    out.pop_back();  // the sink collects the mass that broke the bound
    for (std::size_t s = 0; s < n; ++s)
      if (model.reward(s) > 0.0) out[s] = 0.0;
    return true;
  }

  return false;
}

/// Pr{Y_t <= r, X_t = j} for every j, from the model's initial
/// distribution, with discretisation step d.
inline std::vector<double> tijms_veldman_joint_distribution(const Mrm& model,
                                                            double d, double t,
                                                            double r) {
  std::vector<double> result;
  if (joint_distribution_trivial_case(model, t, r, result)) return result;

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

  result.assign(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    double acc = 0.0;
    for (std::size_t k = 0; k <= reward_cells; ++k)
      acc += current[s * width + k];
    result[s] = acc * d;
  }
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
    const std::vector<double> joint =
        tijms_veldman_joint_distribution(point_start(model, s), d, t, r);
    for (std::size_t j : target.members()) result[s] += joint[j];
  }
  return result;
}

/// Phi U^{[t1,t2]}_{[r1,r2]} Psi from the model's initial distribution:
/// the forward general-window sweep.  Mass flows through Phi-states;
/// at every grid instant, mass in Psi-states inside both windows is
/// harvested and mass in any other !Phi-state dies.
inline double tijms_veldman_interval_until(const Mrm& model, double d,
                                           const StateSet& phi,
                                           const StateSet& psi,
                                           Interval time, Interval reward) {
  const std::size_t n = model.num_states();
  std::vector<std::size_t> rho(n);
  for (std::size_t s = 0; s < n; ++s)
    rho[s] = tv_natural(model.reward(s), 1e-9);
  const std::size_t t_lo = tv_natural(time.lo / d, 1e-6);
  const std::size_t t_hi = tv_natural(time.hi / d, 1e-6);
  const std::size_t r_lo = tv_natural(reward.lo / d, 1e-6);
  const std::size_t r_hi = tv_natural(reward.hi / d, 1e-6);

  const std::size_t width = r_hi + 1;
  std::vector<double> current(n * width, 0.0);
  std::vector<double> next(n * width, 0.0);
  double success = 0.0;
  const auto classify = [&](std::size_t j) {
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t k = 0; k <= r_hi; ++k) {
        double& mass = current[s * width + k];
        if (mass == 0.0) continue;
        if (psi.contains(s) && j >= t_lo && j <= t_hi && k >= r_lo) {
          success += mass * d;
          mass = 0.0;
        } else if (!phi.contains(s)) {
          mass = 0.0;
        }
      }
    }
  };

  for (std::size_t s = 0; s < n; ++s) {
    const double mass = model.initial_distribution()[s];
    if (mass > 0.0) current[s * width] += mass / d;
  }
  classify(0);
  const CsrMatrix incoming = model.rates().transposed();
  for (std::size_t j = 1; j <= t_hi; ++j) {
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t s = 0; s < n; ++s) {
      const double stay = 1.0 - model.chain().exit_rate(s) * d;
      for (std::size_t k = rho[s]; k <= r_hi; ++k)
        next[s * width + k] = current[s * width + k - rho[s]] * stay;
      for (const auto& e : incoming.row(s)) {
        std::size_t shift = rho[e.col];
        if (model.has_impulse_rewards() && model.impulse(e.col, s) > 0.0)
          shift += tv_natural(model.impulse(e.col, s) / d, 1e-6);
        const double weight = e.value * d;
        for (std::size_t k = shift; k <= r_hi; ++k)
          next[s * width + k] += current[e.col * width + k - shift] * weight;
      }
    }
    current.swap(next);
    classify(j);
  }
  return std::min(success, 1.0);
}

/// The general-window until from every start state: one forward sweep
/// per start state from its point-mass distribution.
inline std::vector<double> tijms_veldman_interval_until_all_starts(
    const Mrm& model, double d, const StateSet& phi, const StateSet& psi,
    Interval time, Interval reward) {
  std::vector<double> result(model.num_states(), 0.0);
  for (std::size_t s = 0; s < model.num_states(); ++s)
    result[s] = tijms_veldman_interval_until(point_start(model, s), d, phi,
                                             psi, time, reward);
  return result;
}

}  // namespace csrl::oracle
