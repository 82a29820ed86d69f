// Phase-expanded CTMCs, kept in the n-state shape.
//
// The pseudo-Erlang procedure (core/engines/erlang_engine.hpp) runs
// uniformisation on a chain whose state (s, i) pairs a state s of an
// n-state base CTMC with a phase counter i < k, plus one absorbing
// "exceeded" sink.  Numbered (s, i) |-> s * k + i with the sink at n * k,
// its row (s, i) holds, in column order:
//
//   * each base transition s -> c at its base rate, landing in (c, i); a
//     transition with a jump mean mu > 0 instead lands in (c, i + j) with
//     rate R(s, c) * w_j, w = poisson_weights(mu, 1e-12), for every j of
//     the window with i + j < k, and sends the rest of its rate,
//     R(s, c) * (1 - sum of those w_j), into the sink;
//   * the phase advance at rate advance(s), into (s, i + 1), or into the
//     sink from the last phase;
//
// with duplicate (row, column) rates summed in the order CsrBuilder sums
// them.  Every lane of a state without jump means carries the same row
// shifted by one lane, except the last, whose advance leaves for the sink.
// PhaseChain stores the chain that way: per base state, lane bands of
// rates (matrix/phase_operator.hpp) and the exit rate of each lane, built
// from two representative expanded rows per plain state and one row per
// lane of a state with jump means.  Those rows are assembled, sorted and
// merged exactly as CsrBuilder assembles the explicit expansion, so every
// rate, exit rate and uniformised entry carries the bits the explicit
// (n*k + 1)-state chain would, and uniformised() yields an operator whose
// product equals the CSR product over that chain lane for lane.  The sink
// is not stored: it is absorbing and never in a target, so its backward
// value stays exactly 0 and every term reading it adds +0.0.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "matrix/phase_operator.hpp"

namespace csrl {

/// A phase-expanded CTMC over base.num_states() x phases lanes (see file
/// comment).
class PhaseChain {
 public:
  /// `advance` holds one non-negative phase-advance rate per base state.
  /// `jump_means` is an empty matrix (no phase jumps) or a square matrix
  /// over the base states whose entry (s, c) is the Poisson mean of the
  /// phases the transition s -> c crosses (entries without a base
  /// transition are ignored).  Throws ModelError on a size mismatch,
  /// zero phases, a lane count n * k + 1 that overflows std::size_t, or
  /// a negative or non-finite advance rate.
  PhaseChain(const Ctmc& base, std::span<const double> advance,
             const CsrMatrix& jump_means, std::size_t phases);

  std::size_t num_states() const { return row_ptr_.size() - 1; }
  std::size_t phases() const { return phases_; }

  /// Largest exit rate of any expanded state (the sink's is 0).
  double max_exit_rate() const { return max_exit_rate_; }

  /// The uniformised DTMC P = I + Q / lambda as a phase operator: the
  /// exact counterpart of Ctmc::uniformised_dtmc on the expanded chain.
  /// Requires lambda > 0 and lambda >= max_exit_rate() (ModelError
  /// otherwise, with the same slack as Ctmc::uniformised_dtmc).
  PhaseOperator uniformised(double lambda) const;

 private:
  /// Exit rate `value` shared by the lanes [lo, hi) of one state.
  struct LaneRun {
    std::size_t lo = 0;
    std::size_t hi = 0;
    double value = 0.0;
  };

  std::size_t phases_ = 1;
  /// Rate bands (coef = merged rate) per state, sorted by (source, shift).
  std::vector<std::size_t> row_ptr_ = {0};
  std::vector<PhaseBand> rate_bands_;
  /// Exit-rate runs per state, covering lanes [0, phases) in order.
  std::vector<std::size_t> exit_ptr_ = {0};
  std::vector<LaneRun> exit_runs_;
  double max_exit_rate_ = 0.0;
};

}  // namespace csrl
