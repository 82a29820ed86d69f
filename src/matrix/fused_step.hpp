// The shared vocabulary of the fused step kernels
// (CsrMatrix::multiply_fused in matrix/csr.hpp,
// PhaseOperator::multiply_phase_fused in matrix/phase_operator.hpp):
// the deferred axpys that ride a step's memory traversal and the
// tolerance that turns its convergence scan off.
#pragma once

namespace csrl {

/// A deferred running-sum update fused into a step's pass:
/// out[i] += weight * x[i] applied during the same memory traversal that
/// reads x for the product.
struct FusedAxpy {
  double weight = 0.0;
  double* out = nullptr;
};

/// The fused step kernels return converged: |y - x| <= tolerance for
/// every entry, comparing up to the first entry that moved (a NaN moved).
/// A negative tolerance, such as this one, compares nothing and returns
/// false.
inline constexpr double kNoConvergenceScan = -1.0;

}  // namespace csrl
