// Transient analysis of CTMCs by uniformisation.
//
// This is the workhorse behind model checking time-bounded until (property
// class P1 of the paper, following [3]), the dual reward-bounded until
// (P2), and the pseudo-Erlang engine for the combined case (P3).
//
// Every entry point runs backward: u = e^{Qt} v for a terminal vector v,
// one run answering every start state at once, which is the shape the
// Sat-set procedures need.  A forward quantity from an initial
// distribution alpha is read as alpha . u.  The uniformisation rate is
// the chain's maximum exit rate.
#pragma once

#include <span>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "util/state_set.hpp"

namespace csrl {

class PhaseChain;

/// Controls for uniformisation-based transient analysis.
struct TransientOptions {
  /// Bound on the truncation error of the Poisson series (L1, a priori).
  double epsilon = 1e-10;
  /// Stop iterating powers of P early once the iterate is stationary to
  /// within steady_state_tolerance and attribute the remaining Poisson
  /// mass to that iterate.
  bool steady_state_detection = true;
  double steady_state_tolerance = 1e-14;
  /// Iterate over the active frontier only while it is sparse
  /// (matrix/support.hpp), switching to the dense fused kernel once it
  /// covers a quarter of the state space.  Engages only for non-negative
  /// start vectors (all library uses); results are bitwise identical to
  /// the dense path.  Runs on a phase chain are always dense.
  bool active_support = true;
};

/// Backward transient analysis with an arbitrary terminal value vector v:
/// returns u with u(s) = E_s[v(X_t)] = (e^{Qt} v)(s).  With v an indicator
/// this is occupancy probability; with v a vector of until-probabilities it
/// implements the two-phase scheme for general time intervals.
std::vector<double> transient_backward(const Ctmc& chain,
                                       std::span<const double> terminal,
                                       double t,
                                       const TransientOptions& options = {});

/// Backward transient analysis: for every state s, the probability
/// Pr_s{X_t in target} of occupying `target` at time t when starting in s.
/// One uniformisation run delivers the value for all start states, which is
/// exactly the shape Sat-set computation needs.
std::vector<double> transient_reach(const Ctmc& chain, const StateSet& target,
                                    double t,
                                    const TransientOptions& options = {});

/// transient_reach for several horizons at once: result[i] bitwise equals
/// transient_reach(chain, target, times[i], options).
///
/// One vector-power sequence P^n serves every horizon: the iterate at step
/// n is shared, only the Poisson windows differ per t, so the batch costs
/// one run at max t_i in SpMVs instead of one run per horizon.  The
/// results are bitwise those of the single-horizon calls: per horizon, the
/// same iterates are accumulated with the same weights in the same order,
/// the horizon's series simply stops being accumulated once n passes its
/// own Fox-Glynn right bound, and a steady-state cutoff folds the
/// remaining mass of each still-running horizon's window exactly as the
/// single run would (a horizon whose window ended before the cutoff step
/// never reaches the detection in the single run either).  Horizons may
/// come in any order and may repeat.
std::vector<std::vector<double>> transient_reach_batch(
    const Ctmc& chain, const StateSet& target, std::span<const double> times,
    const TransientOptions& options = {});

/// transient_reach_batch on a phase chain (ctmc/phase_chain.hpp):
/// result[i][s] is the probability, starting in phase 0 of base state s,
/// of occupying any phase of a target state at times[i].  It bitwise
/// equals transient_reach_batch on the explicitly expanded
/// (n*k + 1)-state chain with every phase of the target states as its
/// target, read at index s * k: the phase kernel performs the CSR
/// kernel's per-lane arithmetic (matrix/phase_operator.hpp) and the same
/// steps, windows, pendings and steady-state cutoff apply.  The Poisson
/// accumulators, the steady-state fold and the final flush read only
/// the n phase-0 lanes; the convergence predicate still covers every
/// lane.
/// Dense always: active_support has no effect.
std::vector<std::vector<double>> transient_reach_batch(
    const PhaseChain& chain, const StateSet& target,
    std::span<const double> times, const TransientOptions& options = {});

}  // namespace csrl
