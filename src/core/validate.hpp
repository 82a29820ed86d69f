// Numerical contract checks behind the CSRL_CONTRACT layer.
//
// Validator holds the checks of the engines' result postcondition —
// probability-vector bounds, monotonicity in the reward bound and bitwise
// equality — each reporting violations with full context (subject name,
// entry, value, tolerance) through the single ContractViolation type of
// util/error.hpp.  The structural checks of the numerical core (CSR
// build, stochastic rows, the dual transform, the Fox-Glynn total) are
// CSRL_CONTRACT sites next to the code they guard.  The checks run
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

namespace csrl {

/// Invariant checks over one named subject (a matrix, a vector, an
/// engine result); the name prefixes every violation message.
class Validator {
 public:
  explicit Validator(std::string subject) : subject_(std::move(subject)) {}

  /// Every entry finite and inside [-tol, 1 + tol].
  void probability_vector(std::span<const double> v, double tol = 1e-9) const;

  /// lo[i] <= hi[i] + slack for every i (monotonicity in the reward
  /// bound: a smaller r can only shrink Pr{Y_t <= r, X_t = j}).
  void monotone_nondecreasing(std::span<const double> lo,
                              std::span<const double> hi, double slack) const;

  /// Bitwise equality — the parallel-determinism guarantee.
  void bitwise_equal(std::span<const double> a,
                     std::span<const double> b) const;

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
