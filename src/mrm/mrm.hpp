// Markov reward models (Section 2.1 of the paper).
//
// An MRM M = (S, R, rho) couples a CTMC with a state-based reward
// structure: sojourning t time units in state s earns reward rho(s) * t.
// Following the paper, the model also carries a fixed initial distribution
// alpha and an atomic-proposition labelling used by CSRL formulas.
//
// Extension (the paper's Section-6 outlook): optional transition-triggered
// *impulse rewards* iota(s, s') >= 0, earned instantaneously when the
// transition s -> s' fires (so the accumulated reward at the arrival
// instant already includes the impulse).  The discretisation and
// pseudo-Erlang engines and the simulator support them; Sericola's
// occupation-time recursion and the time/reward duality do not (they are
// rate-reward results), and report that clearly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "ctmc/labelling.hpp"

namespace csrl {

/// A labelled Markov reward model with an initial distribution.
class Mrm {
 public:
  Mrm() = default;

  /// Assemble and validate a model.  Requirements: rewards are finite and
  /// non-negative with one entry per state; labelling universe matches;
  /// the initial distribution is non-negative and sums to 1 (within 1e-9).
  Mrm(Ctmc chain, std::vector<double> rewards, Labelling labelling,
      std::vector<double> initial);

  /// Convenience: point-mass initial distribution on `initial_state`.
  Mrm(Ctmc chain, std::vector<double> rewards, Labelling labelling,
      std::size_t initial_state);

  std::size_t num_states() const { return chain_.num_states(); }

  const Ctmc& chain() const { return chain_; }
  const CsrMatrix& rates() const { return chain_.rates(); }

  double reward(std::size_t s) const { return rewards_[s]; }
  const std::vector<double>& rewards() const { return rewards_; }

  /// Largest reward rate assigned to any state.
  double max_reward() const;

  /// Copy of this model with impulse rewards attached.  `impulses` must be
  /// n x n with finite non-negative entries, each sitting on a transition
  /// with positive rate.
  Mrm with_impulses(CsrMatrix impulses) const;

  /// True if any transition carries a positive impulse reward.
  bool has_impulse_rewards() const { return impulses_.nnz() > 0; }

  /// The impulse matrix (an empty n x n matrix when none were attached).
  const CsrMatrix& impulse_rewards() const { return impulses_; }

  /// iota(from, to); 0 where no impulse is attached.
  double impulse(std::size_t from, std::size_t to) const {
    return impulses_.nnz() == 0 ? 0.0 : impulses_.at(from, to);
  }

  /// The distinct reward values in increasing order.
  std::vector<double> distinct_rewards() const;

  const Labelling& labelling() const { return labelling_; }

  const std::vector<double>& initial_distribution() const { return initial_; }

  /// The unique initial state if the distribution is a point mass; throws
  /// ModelError otherwise.  Theorem 2 of the paper (and hence all three P3
  /// engines) is phrased for a point-mass alpha.
  std::size_t initial_state() const;

  /// initial_state() without the throw: nullopt for a mixed distribution.
  std::optional<std::size_t> point_mass_state() const;

  /// Structural fingerprint of the full model — rate matrix, rewards,
  /// impulses, initial distribution and labelling, all entering through
  /// their bit patterns — so equal fingerprints identify models that are
  /// bit-for-bit the same input to every checking pipeline.  Keys the
  /// Sat-subformula cache (core/batch.hpp) together with Formula::hash().
  /// O(nnz + states * labels); not cached, callers hold on to the value.
  std::uint64_t fingerprint() const;

 private:
  Ctmc chain_;
  std::vector<double> rewards_;
  Labelling labelling_;
  std::vector<double> initial_;
  CsrMatrix impulses_;  // empty unless with_impulses() attached some
};

}  // namespace csrl
