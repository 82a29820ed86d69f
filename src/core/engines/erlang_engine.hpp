// Pseudo-Erlang approximation of the reward bound (Section 4.2).
//
// The fixed reward bound r is replaced by a random bound that is
// Erlang-k distributed with mean r.  Because the Erlang distribution is a
// sum of k exponential phases, the two-dimensional process (X_t, Y_t) with
// the randomised barrier is again a plain CTMC: each original state s is
// expanded into k copies (s, 0) ... (s, k-1) recording how many phases of
// the reward budget have been consumed, plus one absorbing "exceeded"
// state.  Reward accumulates at rate rho(s), and each budget phase is
// exponential with rate k/r per unit of *reward*, so the phase counter
// advances at rate rho(s) * k / r per unit of *time*.  Completing the k-th
// phase means the accumulated reward crossed the (randomised) bound.
//
// Then  Pr{Y_t <= r, X_t = j}  ~  sum_{i < k} pi_{(j,i)}(t),
// computed by standard uniformisation on the expanded chain.  The
// approximation converges to the fixed bound as k grows (the Erlang-k
// distribution concentrates around its mean r); the paper's Table 3 sweeps
// k from 1 to 1024.
//
// As the paper notes, the uniformisation rate of the expanded chain grows
// additively by max_s rho(s) * k / r, so large k slows the transient
// solver; this trade-off is what bench_table3_erlang measures.
#pragma once

#include "core/engines/engine.hpp"
#include "ctmc/uniformisation.hpp"

namespace csrl {

/// Section 4.2's engine.  `phases` is the Erlang order k.
class ErlangEngine : public JointDistributionEngine {
 public:
  explicit ErlangEngine(std::size_t phases, TransientOptions transient = {},
                        std::shared_ptr<ThreadPool> pool = nullptr);

  /// Batched lattice evaluation.  The expanded chain depends only on the
  /// reward bound, so each reward column shares one expansion, and the
  /// column's time axis rides one batched uniformisation run (a single
  /// vector-power sequence with per-horizon Poisson windows) instead of a
  /// run per point.
  std::vector<std::vector<double>> joint_probability_all_starts_grid(
      const Mrm& model, std::span<const double> times,
      std::span<const double> rewards, const StateSet& target) const override;

  std::string name() const override;

  std::size_t phases() const { return phases_; }

 private:
  /// Expanded chain over states (s, i) |-> s * phases_ + i, with the
  /// "bound exceeded" sink at index num_states * phases_.
  Ctmc expand(const Mrm& model, double r) const;

  /// Reward-monotonicity slack of the grid postcondition.
  double monotone_slack() const;

  std::size_t phases_;
  TransientOptions transient_;
};

}  // namespace csrl
