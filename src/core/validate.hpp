// Numerical contract checks behind the CSRL_CONTRACT layer.
//
// Validator collects the recurring invariant checks of the numerical
// core in one place — CSR structural sanity, stochastic/generator row
// sums, probability-vector bounds, Fox-Glynn window normalisation, the
// duality transform's algebraic inverse — each reporting violations with
// full context (subject name, row, value, tolerance) through the single
// ContractViolation type of util/error.hpp.  The checks themselves run
// unconditionally when called; call sites gate them with
// CSRL_CONTRACTS_ACTIVE() / validation::paranoid() so release builds
// with validation off pay one predicted branch, and builds configured
// with -DCSRL_CONTRACTS=OFF pay nothing.
//
// validate_joint_grid is the shared P3-engine postcondition over a result
// lattice: every cell is a probability vector and non-decreasing in the
// reward bound r, and — at the paranoid level, via the engine-supplied
// recompute hook — the lattice is bit-identical when recomputed with every
// parallel_for forced serial (the 1-thread vs N-thread agreement hook) and
// dominates the lattice recomputed at halved reward bounds.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "ctmc/foxglynn.hpp"
#include "matrix/csr.hpp"
#include "mrm/mrm.hpp"

namespace csrl {

/// Invariant checks over one named subject (a matrix, a vector, an
/// engine result); the name prefixes every violation message.
class Validator {
 public:
  explicit Validator(std::string subject) : subject_(std::move(subject)) {}

  /// CSR structural sanity: per-row columns strictly increasing (hence
  /// sorted and duplicate-free), all column indices < cols(), all stored
  /// values finite and non-zero, row extents covering nnz() exactly.
  void csr_structure(const CsrMatrix& m) const;

  /// Every row of a stochastic matrix sums to 1 within `tol` and has
  /// non-negative entries (rows of a sub-stochastic matrix may sum to
  /// less; pass `allow_substochastic`).
  void stochastic_rows(const CsrMatrix& m, double tol = 1e-9,
                       bool allow_substochastic = false) const;

  /// Every row of an infinitesimal generator sums to 0 within `tol`
  /// (absolute, scaled by the row's largest magnitude) with a
  /// non-positive diagonal and non-negative off-diagonals.
  void generator_rows(const CsrMatrix& m, double tol = 1e-9) const;

  /// Every entry finite and inside [-tol, 1 + tol].
  void probability_vector(std::span<const double> v, double tol = 1e-9) const;

  /// probability_vector + the entries sum to 1 within `tol`.
  void distribution(std::span<const double> v, double tol = 1e-9) const;

  /// Fox-Glynn window sanity: non-empty, weights non-negative and
  /// consistent with `total`, total within [1 - epsilon, 1 + 1e-12].
  void poisson_window(const PoissonWeights& w, double epsilon) const;

  /// lo[i] <= hi[i] + slack for every i (monotonicity in the reward
  /// bound: a smaller r can only shrink Pr{Y_t <= r, X_t = j}).
  void monotone_nondecreasing(std::span<const double> lo,
                              std::span<const double> hi, double slack) const;

  /// Bitwise equality — the parallel-determinism guarantee.
  void bitwise_equal(std::span<const double> a,
                     std::span<const double> b) const;

  /// `dualized` really is the [4, Thm 1] dual of `original`:
  /// rho^(s) * rho(s) = 1 and R^(s,s') * rho(s) = R(s,s') on
  /// non-absorbing states, absorbing states stay absorbing.
  void dual_inverse(const Mrm& original, const Mrm& dualized,
                    double tol = 1e-9) const;

 private:
  [[noreturn]] void fail(const std::string& what) const;

  std::string subject_;
};

/// Shared P3-engine postcondition (see file comment) for a grid-point-major
/// lattice, grid[i * rewards.size() + j] holding the (times[i],
/// rewards[j]) cell.  `monotone_slack` absorbs the engine's approximation
/// error in both reward-monotonicity checks; the reward axis may be
/// unsorted.  `recompute_at_rewards` re-runs the same computation over
/// `times` x the given reward axis; the paranoid level calls it with the
/// original axis under ForceSerialGuard and with every bound halved.
/// Recursion through the hook is cut off with a thread-local reentrancy
/// guard, and a recompute that rejects the halved bounds (e.g. the
/// discretisation grid refusing an off-grid r) is skipped, not reported.
void validate_joint_grid(
    const std::string& engine_name, std::span<const double> times,
    std::span<const double> rewards,
    std::span<const std::vector<double>> grid, double monotone_slack,
    const std::function<std::vector<std::vector<double>>(
        std::span<const double>)>& recompute_at_rewards);

}  // namespace csrl
