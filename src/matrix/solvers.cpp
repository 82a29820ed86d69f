#include "matrix/solvers.hpp"

#include <algorithm>
#include <cmath>

#include "matrix/vector_ops.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace csrl {

namespace {

void check_square_system(const CsrMatrix& a, std::size_t b_size, const char* where) {
  if (a.rows() != a.cols())
    throw ModelError(std::string(where) + ": matrix must be square");
  if (a.rows() != b_size)
    throw ModelError(std::string(where) + ": right-hand side size mismatch");
}

/// Deterministic per-iteration cost charge for the stationary sweeps
/// (DESIGN.md 3h).  One Gauss-Seidel sweep streams the matrix
/// once like an SpMV (2*nnz flops, 24*nnz bytes) plus the vector
/// traffic of the splitting and the convergence diff: read b and x,
/// write the iterate, re-read both for the diff — 2*n flops and 48*n
/// bytes.  Structural only (never value-dependent), so totals are
/// bit-identical across machines and thread counts.
inline void charge_sweep_cost([[maybe_unused]] std::uint64_t nnz,
                              [[maybe_unused]] std::uint64_t n) {
  CSRL_COUNT("cost/solver/flops", 2 * nnz + 2 * n);
  CSRL_COUNT("cost/solver/bytes", 24 * nnz + 48 * n);
}

/// Per-iteration vector-op charge for BiCGSTAB: three dots, four axpy
/// updates and two norms over length-n vectors (~22*n flops, ~16 vector
/// passes of 8*n bytes).  The two matrix applies inside the iteration
/// charge themselves under cost/spmv via CsrMatrix::multiply.
inline void charge_bicgstab_iteration_cost([[maybe_unused]] std::uint64_t n) {
  CSRL_COUNT("cost/solver/flops", 22 * n);
  CSRL_COUNT("cost/solver/bytes", 128 * n);
}

/// Per-iteration vector-op charge for the stationary power method: an
/// L1 normalisation and a convergence diff (4*n flops, four vector
/// passes of 8*n bytes).  The multiply_left charges itself under
/// cost/spmv.
inline void charge_power_iteration_cost([[maybe_unused]] std::uint64_t n) {
  CSRL_COUNT("cost/solver/flops", 4 * n);
  CSRL_COUNT("cost/solver/bytes", 32 * n);
}

/// One Gauss-Seidel sweep for x = Ax + b (in place) in the "proper"
/// splitting: the diagonal is moved to the left-hand side, which converges
/// whenever the plain iteration does and is faster in the presence of
/// self-loops.  Returns the largest update.
double gauss_seidel_sweep(const CsrMatrix& a, std::span<const double> b,
                          std::span<double> x) {
  const std::size_t n = a.rows();
  double largest = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    double off = b[s];
    double diag = 0.0;
    for (const auto& e : a.row_unchecked(s)) {
      if (e.col == s)
        diag = e.value;
      else
        off += e.value * x[e.col];
    }
    const double denom = 1.0 - diag;
    if (std::abs(denom) < 1e-300)
      // lint:allow hot-throw (numerical breakdown guard; the fatal exit, never taken on a well-posed system)
      throw NumericalError("solve_fixpoint: diagonal entry equal to 1");
    const double candidate = off / denom;
    // An update of x[s], not x[s] = candidate: the two roundings can
    // leave the result one ulp off candidate, and the pinned values hold
    // that bit.
    const double updated = x[s] + (candidate - x[s]);
    largest = std::max(largest, std::abs(updated - x[s]));
    x[s] = updated;
  }
  return largest;
}

/// BiCGSTAB on M x = b with M = I - A, expressed through y = x - A x.
std::vector<double> bicgstab(const CsrMatrix& a, std::span<const double> b,
                             const SolverOptions& options) {
  CSRL_SPAN("solver/bicgstab");
  const std::size_t n = a.rows();
  const auto apply = [&a](std::span<const double> x, std::vector<double>& y) {
    a.multiply(x, y);           // y = A x
    for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] - y[i];  // (I-A)x
  };

  std::vector<double> x(n, 0.0);
  std::vector<double> r(b.begin(), b.end());  // r = b - M*0
  const std::vector<double> r_hat = r;  // shadow residual; never written again
  std::vector<double> p(n, 0.0);
  std::vector<double> v(n, 0.0);
  std::vector<double> s(n, 0.0);
  std::vector<double> t(n, 0.0);

  const double target = options.tolerance * std::max(1.0, norm_inf(b));
  const double r0 = norm_inf(r);
  if (r0 <= target) {
    CSRL_GAUGE("solver/residual", r0);
    return x;
  }

  double rho = 1.0;
  double alpha = 1.0;
  double omega = 1.0;
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    CSRL_COUNT("solver/iterations", 1);
    charge_bicgstab_iteration_cost(n);
    const double rho_next = dot(r_hat, r);
    if (std::abs(rho_next) < 1e-300)
      // lint:allow hot-throw (numerical breakdown guard; the fatal exit, never taken on a converging run)
      throw NumericalError("solve_fixpoint: BiCGSTAB breakdown (rho ~ 0)");
    const double beta = (rho_next / rho) * (alpha / omega);
    rho = rho_next;
    for (std::size_t i = 0; i < n; ++i)
      p[i] = r[i] + beta * (p[i] - omega * v[i]);
    apply(p, v);
    const double denominator = dot(r_hat, v);
    if (std::abs(denominator) < 1e-300)
      // lint:allow hot-throw (numerical breakdown guard; the fatal exit, never taken on a converging run)
      throw NumericalError("solve_fixpoint: BiCGSTAB breakdown (r^.v ~ 0)");
    alpha = rho / denominator;
    for (std::size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];
    const double s_norm = norm_inf(s);
    if (s_norm <= target) {
      axpy(alpha, p, x);
      CSRL_GAUGE("solver/residual", s_norm);
      return x;
    }
    apply(s, t);
    const double tt = dot(t, t);
    if (tt < 1e-300)
      // lint:allow hot-throw (numerical breakdown guard; the fatal exit, never taken on a converging run)
      throw NumericalError("solve_fixpoint: BiCGSTAB breakdown (t ~ 0)");
    omega = dot(t, s) / tt;
    for (std::size_t i = 0; i < n; ++i) x[i] += alpha * p[i] + omega * s[i];
    for (std::size_t i = 0; i < n; ++i) r[i] = s[i] - omega * t[i];
    const double r_norm = norm_inf(r);
    if (r_norm <= target) {
      CSRL_GAUGE("solver/residual", r_norm);
      return x;
    }
  }
  throw NumericalError("solve_fixpoint: BiCGSTAB did not converge within " +
                       std::to_string(options.max_iterations) + " iterations");
}

}  // namespace

std::vector<double> solve_fixpoint(const CsrMatrix& a, std::span<const double> b,
                                   const SolverOptions& options) {
  check_square_system(a, b.size(), "solve_fixpoint");
  const std::size_t n = a.rows();
  std::vector<double> x(n, 0.0);
  if (n == 0) return x;

  if (options.method == LinearMethod::kBicgstab) return bicgstab(a, b, options);

  CSRL_SPAN("solver/gauss_seidel");
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    CSRL_COUNT("solver/iterations", 1);
    charge_sweep_cost(a.nnz(), n);
    const double diff = gauss_seidel_sweep(a, b, x);
    if (diff <= options.tolerance) {
      CSRL_GAUGE("solver/residual", diff);
      return x;
    }
  }
  throw NumericalError("solve_fixpoint: no convergence within " +
                       std::to_string(options.max_iterations) + " iterations");
}

std::vector<double> power_stationary(const CsrMatrix& p,
                                     const SolverOptions& options) {
  check_square_system(p, p.rows(), "power_stationary");
  const std::size_t n = p.rows();
  if (n == 0) throw ModelError("power_stationary: empty matrix");

  CSRL_SPAN("solver/power_stationary");
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    CSRL_COUNT("solver/iterations", 1);
    charge_power_iteration_cost(n);
    p.multiply_left(pi, next);
    normalise_l1(next);
    const double diff = max_abs_diff(pi, next);
    pi.swap(next);
    if (diff <= options.tolerance) {
      CSRL_GAUGE("solver/residual", diff);
      return pi;
    }
  }
  throw NumericalError("power_stationary: no convergence within " +
                       std::to_string(options.max_iterations) + " iterations");
}

}  // namespace csrl
