// Model transformations used by the CSRL model-checking procedure.
//
// Three transformations from the paper:
//
//  * make_absorbing — drop all outgoing transitions of selected states
//    (and optionally zero their reward).  This is the preprocessing step
//    of time-bounded until checking (property class P1, following [3]).
//
//  * reduce_for_until — the paper's Theorem 1: for Phi U^{<=t}_{<=r} Psi,
//    make Psi-states and ~(Phi | Psi)-states absorbing with reward 0 and
//    amalgamate each of the two groups into a single state ("success" and
//    "fail").  Checking the until formula then reduces to the joint
//    probability Pr{Y_t <= r, X_t = success} on the much smaller model.
//
//  * dual — the time/reward duality of [4, Theorem 1]: in
//    M^ = (S, R^, rho^) with R^(s,s') = R(s,s')/rho(s) and
//    rho^(s) = 1/rho(s), the roles of elapsed time and earned reward are
//    swapped.  Reward-bounded until on M (property class P2) becomes
//    time-bounded until on M^ (property class P1).
#pragma once

#include <cstddef>
#include <vector>

#include "mrm/mrm.hpp"
#include "util/state_set.hpp"

namespace csrl {

/// Copy of `model` in which every state of `absorb` loses its outgoing
/// transitions; if `zero_reward`, those states also get reward 0.
Mrm make_absorbing(const Mrm& model, const StateSet& absorb, bool zero_reward);

/// Result of the Theorem-1 reduction.  The reduced model keeps one state
/// per transient original state plus the two amalgamated absorbing states;
/// `state_map[s]` gives the reduced index of original state s.  The reduced
/// labelling carries the propositions "success" and "fail".
struct UntilReduction {
  Mrm model;
  std::size_t success_state = 0;
  std::size_t fail_state = 0;
  std::vector<std::size_t> state_map;
};

/// Apply Theorem 1 for the until formula with Sat sets `phi` and `psi`.
/// The initial distribution of the reduced model is the push-forward of
/// the original one (mass on Psi-states lands on "success", mass on bad
/// states on "fail").
UntilReduction reduce_for_until(const Mrm& model, const StateSet& phi,
                                const StateSet& psi);

/// The dual MRM of [4, Theorem 1].  Requires rho(s) > 0 for every
/// non-absorbing state (throws ModelError otherwise).  Absorbing states
/// with reward 0 stay absorbing with reward 0: no dual time ever passes in
/// them, which is consistent with the duality because no reward is earned
/// there in the original either.
Mrm dual(const Mrm& model);

}  // namespace csrl
