#include "mrm/transform.hpp"

#include <cmath>
#include <string>

#include "obs/obs.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace csrl {

Mrm make_absorbing(const Mrm& model, const StateSet& absorb, bool zero_reward) {
  const std::size_t n = model.num_states();
  if (absorb.size() != n)
    throw ModelError("make_absorbing: universe size mismatch");

  CsrBuilder rates(n, n);
  for (std::size_t s = 0; s < n; ++s) {
    if (absorb.contains(s)) continue;
    for (const auto& e : model.rates().row(s)) rates.add(s, e.col, e.value);
  }

  std::vector<double> rewards = model.rewards();
  if (zero_reward)
    for (std::size_t s : absorb.members()) rewards[s] = 0.0;

  Mrm result(Ctmc(rates.build()), std::move(rewards), model.labelling(),
             model.initial_distribution());
  if (model.has_impulse_rewards()) {
    // Impulses survive on the transitions that survive.
    CsrBuilder impulses(n, n);
    for (std::size_t s = 0; s < n; ++s) {
      if (absorb.contains(s)) continue;
      for (const auto& e : model.impulse_rewards().row(s))
        impulses.add(s, e.col, e.value);
    }
    result = result.with_impulses(impulses.build());
  }
  return result;
}

UntilReduction reduce_for_until(const Mrm& model, const StateSet& phi,
                                const StateSet& psi) {
  CSRL_SPAN("mrm/reduce_for_until");
  CSRL_COUNT("mrm/until_reductions", 1);
  const std::size_t n = model.num_states();
  if (phi.size() != n || psi.size() != n)
    throw ModelError("reduce_for_until: universe size mismatch");

  // Transient states: Phi-states that are not Psi-states.  Everything in
  // Psi is amalgamated into "success", everything satisfying neither into
  // "fail".
  const StateSet transient = phi - psi;
  const std::vector<std::size_t> transient_states = transient.members();
  const std::size_t num_transient = transient_states.size();
  const std::size_t success = num_transient;
  const std::size_t fail = num_transient + 1;
  const std::size_t reduced_n = num_transient + 2;

  std::vector<std::size_t> state_map(n, fail);
  for (std::size_t i = 0; i < num_transient; ++i)
    state_map[transient_states[i]] = i;
  for (std::size_t s : psi.members()) state_map[s] = success;

  CsrBuilder rates(reduced_n, reduced_n);
  std::vector<double> rewards(reduced_n, 0.0);
  for (std::size_t i = 0; i < num_transient; ++i) {
    const std::size_t s = transient_states[i];
    rewards[i] = model.reward(s);
    for (const auto& e : model.rates().row(s))
      rates.add(i, state_map[e.col], e.value);
  }

  std::vector<double> initial(reduced_n, 0.0);
  for (std::size_t s = 0; s < n; ++s)
    initial[state_map[s]] += model.initial_distribution()[s];

  Labelling labelling(reduced_n);
  labelling.add_label(success, "success");
  labelling.add_label(fail, "fail");

  UntilReduction result;
  result.model = Mrm(Ctmc(rates.build()), std::move(rewards),
                     std::move(labelling), std::move(initial));
  result.success_state = success;
  result.fail_state = fail;

  if (model.has_impulse_rewards()) {
    // Impulses among the surviving transitions carry over.  Arcs that are
    // amalgamated into one reduced transition must agree on their impulse
    // (a rate-weighted average would change the *distribution* of the
    // accumulated reward, not just its mean); arcs into "fail" may differ
    // freely because failed paths never count.
    CsrBuilder impulses(reduced_n, reduced_n);
    for (std::size_t i = 0; i < num_transient; ++i) {
      const std::size_t s = transient_states[i];
      // reduced target -> impulse seen so far (kUnset = none yet).
      constexpr double kUnset = -1.0;
      std::vector<double> seen(reduced_n, kUnset);
      for (const auto& e : model.rates().row(s)) {
        const std::size_t to = state_map[e.col];
        const double impulse = model.impulse(s, e.col);
        if (to == fail) continue;
        if (seen[to] == kUnset) {
          seen[to] = impulse;
        } else if (seen[to] != impulse) {
          throw ModelError(
              "reduce_for_until: transitions amalgamated into one reduced arc "
              "carry different impulse rewards (source state " +
              std::to_string(s) + "); such models cannot be reduced exactly");
        }
      }
      for (std::size_t to = 0; to < reduced_n; ++to)
        if (seen[to] != kUnset && seen[to] > 0.0)
          impulses.add(i, to, seen[to]);
    }
    result.model = result.model.with_impulses(impulses.build());
  }

  result.state_map = std::move(state_map);
  return result;
}

Mrm dual(const Mrm& model) {
  CSRL_SPAN("mrm/dual");
  CSRL_COUNT("mrm/dual_transforms", 1);
  if (model.has_impulse_rewards())
    throw ModelError(
        "dual: the time/reward duality of [4, Thm 1] is a rate-reward "
        "result; impulse rewards have no time-dimension counterpart");
  const std::size_t n = model.num_states();
  CsrBuilder rates(n, n);
  std::vector<double> rewards(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    const double rho = model.reward(s);
    if (model.chain().is_absorbing(s)) {
      // No outgoing transitions to rescale; the dual reward is 1/rho when
      // defined, and 0 for a reward-0 absorbing trap (see header).
      rewards[s] = rho > 0.0 ? 1.0 / rho : 0.0;
      continue;
    }
    if (!(rho > 0.0))
      throw ModelError("dual: non-absorbing state " + std::to_string(s) +
                       " has zero reward; the time/reward duality of [4, "
                       "Thm 1] requires a positive reward structure");
    rewards[s] = 1.0 / rho;
    for (const auto& e : model.rates().row(s)) rates.add(s, e.col, e.value / rho);
  }
  Mrm dualized(Ctmc(rates.build()), std::move(rewards), model.labelling(),
               model.initial_distribution());
  // Algebraic postcondition of [4, Thm 1]: multiplying the dual rates and
  // the dual rewards back by rho(s) must recover the original model —
  // M and M^ agree, entry by entry, up to one rounding of the division.
  CSRL_CONTRACT(
      [&] {
        for (std::size_t s = 0; s < n; ++s) {
          const double rho = model.reward(s);
          if (model.chain().is_absorbing(s)) {
            if (!dualized.chain().is_absorbing(s)) return false;
            continue;
          }
          if (std::abs(dualized.reward(s) * rho - 1.0) > 1e-12) return false;
          for (const auto& e : model.rates().row(s)) {
            const double back = dualized.rates().at(s, e.col) * rho;
            if (std::abs(back - e.value) > 1e-12 * std::abs(e.value))
              return false;
          }
        }
        return true;
      }(),
      "dual: M^ is not the [4, Thm 1] dual of M (rho * R^ != R or "
      "rho * rho^ != 1 on some state)");
  return dualized;
}

}  // namespace csrl
