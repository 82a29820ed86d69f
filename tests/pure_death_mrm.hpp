// Test fixture: the pure death chain, a model with closed forms.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "ctmc/labelling.hpp"
#include "matrix/csr.hpp"
#include "mrm/mrm.hpp"
#include "util/error.hpp"

namespace csrl {

/// Pure death chain: starts in state n-1 and steps down to the absorbing
/// state 0 at `rate`.  The hitting time of "dead" (state 0) is
/// Erlang(n-1, rate), giving closed forms for tests.  Reward of state i
/// is i.
inline Mrm pure_death_mrm(std::size_t num_states, double rate) {
  if (num_states == 0) throw ModelError("pure_death_mrm: need >= 1 state");
  CsrBuilder rates(num_states, num_states);
  std::vector<double> rewards(num_states, 0.0);
  Labelling labelling(num_states);
  for (std::size_t i = 1; i < num_states; ++i) {
    rates.add(i, i - 1, rate);
    rewards[i] = static_cast<double>(i);
  }
  labelling.add_label(0, "dead");
  labelling.add_label(num_states - 1, "fresh");
  return Mrm(Ctmc(rates.build()), std::move(rewards), std::move(labelling),
             num_states - 1);
}

}  // namespace csrl
