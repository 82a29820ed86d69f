// Test helpers: the forward (from-alpha, per-final-state) shape of the P3
// engines and of transient analysis, built from the one shape they answer.
//
// An engine evaluates the all-start-states form
//   all_starts(target)[s] = Pr_s{Y_t <= r, X_t in target},
// and every forward quantity is linear in it: the value from the model's
// initial distribution alpha is alpha . all_starts(target), and the joint
// distribution over final states, Pr_alpha{Y_t <= r, X_t = j}, is that
// value with target = {j} — one engine run per final state, which is the
// paper's matrix cost.  Transient analysis (ctmc/uniformisation.hpp) is
// the same with no reward bound.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/engines/engine.hpp"
#include "ctmc/uniformisation.hpp"
#include "matrix/vector_ops.hpp"
#include "mrm/mrm.hpp"
#include "util/state_set.hpp"

namespace csrl::oracle {

/// alpha . per_start: a per-start-state vector read from the model's
/// initial distribution.
inline double from_initial(const Mrm& model,
                           std::span<const double> per_start) {
  return dot(model.initial_distribution(), per_start);
}

/// Pr_alpha{Y_t <= r, X_t in target}.
inline double from_initial(const JointDistributionEngine& engine,
                           const Mrm& model, double t, double r,
                           const StateSet& target) {
  return from_initial(
      model, engine.joint_probability_all_starts(model, t, r, target));
}

/// Pr_alpha{Y_t <= r, X_t = j} for every final state j.
inline std::vector<double> per_final_state(
    const JointDistributionEngine& engine, const Mrm& model, double t,
    double r) {
  const std::size_t n = model.num_states();
  std::vector<double> result(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    StateSet final_state(n);
    final_state.insert(j);
    result[j] = from_initial(engine, model, t, r, final_state);
  }
  return result;
}

/// The transient distribution Pr_alpha{X_t = j} for every final state j,
/// from the start distribution `initial`: alpha . transient_reach({j}).
inline std::vector<double> per_final_state(
    const Ctmc& chain, std::span<const double> initial, double t,
    const TransientOptions& options = {}) {
  const std::size_t n = chain.num_states();
  std::vector<double> result(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    StateSet final_state(n);
    final_state.insert(j);
    result[j] = dot(initial, transient_reach(chain, final_state, t, options));
  }
  return result;
}

}  // namespace csrl::oracle
