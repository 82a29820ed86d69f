// Expected-reward utilities on MRMs.
//
// Not part of CSRL's boolean fragment, but the natural quantitative
// companions: the expected instantaneous reward rate E_s[rho(X_t)] and the
// expected accumulated reward E_s[Y_t], for every start state s at once.
// Both are computed by backward uniformisation; E_s[Y_t] uses the
// integrated-Poisson identity
//
//   E_s[Y_t] = (1/lambda) * sum_{n>=0} Pr{N(lambda t) > n} * (P^n rho)(s),
//
// with P the uniformised DTMC.  A value from the initial distribution
// alpha is alpha . E_s.
#pragma once

#include "ctmc/uniformisation.hpp"
#include "mrm/mrm.hpp"

namespace csrl {

/// E[Y_t], the expected reward accumulated over [0, t], from the model's
/// initial distribution: alpha . expected_accumulated_reward_all_starts.
double expected_accumulated_reward(const Mrm& model, double t,
                                   const TransientOptions& options = {});

/// The effective per-state reward rate rho(s) + sum_{s'} R(s,s') iota(s,s'):
/// impulse rewards contribute to expectations exactly like an extra rate
/// reward equal to their arrival intensity, which lets every expectation
/// routine below treat both kinds uniformly.
std::vector<double> effective_reward_rates(const Mrm& model);

/// E_s[rho(X_t)] for every start state s (one backward uniformisation).
std::vector<double> expected_instantaneous_reward_all_starts(
    const Mrm& model, double t, const TransientOptions& options = {});

/// E_s[Y_t] for every start state s (one backward uniformisation);
/// includes impulse contributions.
std::vector<double> expected_accumulated_reward_all_starts(
    const Mrm& model, double t, const TransientOptions& options = {});

}  // namespace csrl
