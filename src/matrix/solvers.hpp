// Iterative solvers for the linear systems arising in CSRL model checking.
//
// Two problem shapes cover everything the checker needs:
//
//  1. Affine fixpoints  x = A x + b  with spectral radius rho(A) < 1.
//     These arise for unbounded-until probabilities on the embedded DTMC
//     restricted to "maybe" states (after the Prob0 graph precomputation
//     the restriction is guaranteed substochastic and convergent).
//
//  2. Stationary distributions  pi = pi P,  pi >= 0,  sum(pi) = 1  of an
//     irreducible stochastic matrix P (a uniformised CTMC restricted to a
//     bottom strongly-connected component).
//
// Gauss-Seidel and BiCGSTAB are provided for shape 1; power iteration for
// shape 2.  All solvers throw NumericalError if the iteration limit is
// reached before the tolerance is met.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "matrix/csr.hpp"

namespace csrl {

/// Iterative method selector for solve_fixpoint.
enum class LinearMethod {
  kGaussSeidel,
  /// Krylov-subspace method (van der Vorst's BiCGSTAB) on (I - A) x = b;
  /// typically far fewer iterations than the stationary methods on
  /// ill-conditioned systems, at two matrix-vector products per step.
  kBicgstab,
};

/// Convergence controls shared by all iterative solvers.
struct SolverOptions {
  /// Stop when successive iterates differ by at most this (max norm).
  double tolerance = 1e-12;
  /// Hard iteration cap; exceeding it throws NumericalError.
  std::size_t max_iterations = 1'000'000;
  /// Which update scheme solve_fixpoint uses.
  LinearMethod method = LinearMethod::kGaussSeidel;
};

/// Solve x = A x + b.  A must be square with x/b of matching size and is
/// assumed convergent (rho(A) < 1); diagonal entries A_ss != 1 are required.
/// Returns the fixpoint.
std::vector<double> solve_fixpoint(const CsrMatrix& a, std::span<const double> b,
                                   const SolverOptions& options = {});

/// Left-eigenvector power iteration: returns the stationary distribution of
/// the stochastic matrix P (rows summing to 1).  P must be irreducible and
/// aperiodic; the uniformised matrix of any irreducible CTMC with
/// uniformisation rate strictly above the maximal exit rate qualifies.
std::vector<double> power_stationary(const CsrMatrix& p,
                                     const SolverOptions& options = {});

}  // namespace csrl
