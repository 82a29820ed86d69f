// Test helper: renumber the states of an MRM.
//
// The checker never renumbers states; tests use this to build the same
// MRM under a state bijection, e.g. to move every forward arc of a model
// in front of its row's diagonal.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "ctmc/labelling.hpp"
#include "matrix/csr.hpp"
#include "mrm/mrm.hpp"
#include "util/error.hpp"

namespace csrl {

/// Copy of `model` with its states renumbered by `perm`, where
/// perm[new_index] = old_index.  Rates, impulse rewards, state rewards,
/// the labelling and the initial distribution all move consistently, so
/// the permuted model is the same MRM under a state bijection.  Throws
/// ModelError unless `perm` is a permutation of the state indices.
inline Mrm permute_states(const Mrm& model, std::span<const std::size_t> perm) {
  const std::size_t n = model.num_states();
  if (perm.size() != n)
    throw ModelError("permute_states: permutation size mismatch");
  constexpr std::size_t kUnset = static_cast<std::size_t>(-1);
  std::vector<std::size_t> inverse(n, kUnset);
  for (std::size_t new_index = 0; new_index < n; ++new_index) {
    const std::size_t old_index = perm[new_index];
    if (old_index >= n || inverse[old_index] != kUnset)
      throw ModelError("permute_states: not a permutation of the states");
    inverse[old_index] = new_index;
  }

  CsrBuilder rates(n, n);
  std::vector<double> rewards(n, 0.0);
  std::vector<double> initial(n, 0.0);
  for (std::size_t new_index = 0; new_index < n; ++new_index) {
    const std::size_t old_index = perm[new_index];
    rewards[new_index] = model.reward(old_index);
    initial[new_index] = model.initial_distribution()[old_index];
    for (const auto& e : model.rates().row(old_index))
      rates.add(new_index, inverse[e.col], e.value);
  }

  Labelling labelling(n);
  for (const std::string& name : model.labelling().propositions()) {
    labelling.add_proposition(name);
    for (std::size_t s : model.labelling().states_with(name).members())
      labelling.add_label(inverse[s], name);
  }

  Mrm result(Ctmc(rates.build()), std::move(rewards), std::move(labelling),
             std::move(initial));
  if (model.has_impulse_rewards()) {
    CsrBuilder impulses(n, n);
    for (std::size_t new_index = 0; new_index < n; ++new_index) {
      const std::size_t old_index = perm[new_index];
      for (const auto& e : model.impulse_rewards().row(old_index))
        impulses.add(new_index, inverse[e.col], e.value);
    }
    result = result.with_impulses(impulses.build());
  }
  return result;
}

}  // namespace csrl
