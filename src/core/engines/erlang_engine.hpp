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
// advances at rate rho(s) * k / r per unit of *time*; an impulse iota
// crosses a Poisson(iota * k / r) number of phases at once.  Completing
// the k-th phase means the accumulated reward crossed the (randomised)
// bound.
//
// Then  Pr_s{Y_t <= r, X_t in S'}  ~  sum_{i < k} Pr_{(s,0)}{X'_t = (j,i),
// j in S'}, computed by backward uniformisation on the expanded chain and
// read at phase 0.  The approximation converges to the fixed bound as k
// grows (the Erlang-k distribution concentrates around its mean r); the
// paper's Table 3 sweeps k from 1 to 1024.
//
// The expanded chain is never built.  Its state (s, i) sits at index
// s * k + i, so every row of state s is the n-state row of s shifted by
// one lane, plus a per-lane diagonal and the one-lane advance.  The
// engine hands the model to ctmc/phase_chain.hpp, which keeps those rows
// as lane bands over the n base states, and runs the phase form of
// transient_reach_batch: each uniformisation step adds every stored term
// of an n-state row to all k lanes in one contiguous SIMD lane loop
// (matrix/phase_operator.hpp), in the column order of the expanded row,
// and the Poisson accumulators, the steady-state fold and the final
// flush read only the n phase-0 lanes.  The lattice is bit for bit the
// one uniformisation on the explicit (n*k + 1)-state CSR chain yields
// (tests/erlang_expansion_oracle.hpp keeps that expansion as the test
// oracle).  The run is dense: TransientOptions::active_support has no
// effect here.
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
  explicit ErlangEngine(std::size_t phases, TransientOptions transient = {});

  /// Batched lattice evaluation.  Each reward column is one phase chain
  /// (the advance rate depends on the bound), and the column's time axis
  /// rides one batched uniformisation run (a single vector-power sequence
  /// with per-horizon Poisson windows, each horizon's running sum carried
  /// as one scalar pending on the phase-0 readouts) instead of a run per
  /// point.
  std::vector<std::vector<double>> joint_probability_all_starts_grid(
      const Mrm& model, std::span<const double> times,
      std::span<const double> rewards, const StateSet& target) const override;

  std::string name() const override;

  std::size_t phases() const { return phases_; }

 private:
  /// Reward-monotonicity slack of the grid postcondition.
  double monotone_slack() const;

  std::size_t phases_;
  TransientOptions transient_;
};

}  // namespace csrl
