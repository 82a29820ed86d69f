// Occupation-time distributions (Section 4.4, after Sericola [23]).
//
// Sericola's result expresses the complementary joint probability
//
//   H_ij(t, r) = Pr{Y_t > r, X_t = j | X_0 = i}
//
// as a uniformisation series whose inner sum is a Bernstein polynomial:
// with rewards 0 = rho_0 < rho_1 < ... < rho_m partitioning the states
// into classes, and r in [rho_{h-1} t, rho_h t),
//
//   H(t,r) = sum_{n>=0} e^{-lt} (lt)^n / n!
//            sum_{k=0}^{n} C(n,k) x_h^k (1-x_h)^{n-k}  C(h,n,k),
//
// where x_h = (r - rho_{h-1} t) / ((rho_h - rho_{h-1}) t) in [0,1), l is
// the uniformisation rate and P = I + Q/l.  The coefficient matrices obey
// recursions in (h, n, k) that couple neighbouring reward intervals
// ([23, Thm 5.6]); since 0 <= C(h,n,k) <= P^n entrywise, the inner sum is
// bounded by 1 and the Poisson tail yields an *a priori* truncation depth
// N_eps for any requested error bound eps — the feature the paper singles
// out as this method's advantage (Table 2 reports N_eps per eps).
//
// Implementation note (documented in DESIGN.md): the recursions multiply
// by P on the *left*, so they commute with right-multiplication by a fixed
// target-indicator vector v.  We therefore iterate vectors
// c(h,n,k) = C(h,n,k) v instead of full matrices, obtaining
// Pr_i{Y_t > r, X_t in target} for *all* start states i in one pass and
// dropping the complexity from O(N^2 m |S|^3) time / O(m N |S|^2) space to
// O(N^2 m nnz) time / O(m N |S|) space.  Results are bit-for-bit the same
// linear algebra.  The paper's per-final-state matrix entries are the
// passes for the singleton targets {j}; the tests and
// bench_ablation_sericola build them that way when they need them.
//
// Layout and identity argument (docs/ALGORITHMS.md section 3, DESIGN.md
// section 3f): the coefficients are stored state-major — state i owns one
// contiguous row of m * (N + 1) lanes, c(h, n, k)[i] at lane k * m + h - 1
// — so level n's m * n products P * c(h, n-1, k), k < n, are the one band
// [0, m * n) of every row, and one lane product per level reads them in
// place (CsrMatrix::multiply_lanes_row).  Each lane accumulates its CSR
// row from +0.0 in column order, exactly as multiply() does.  Within a
// level the recursion is state-local, so one pass over state tiles (one
// parallel region per level; tile size from the row width and the number
// of recursion states) runs each tile's products, its high and low sweeps
// (the high sweep of h and the low sweep of m + 1 - h in one k loop), its
// Bernstein sums and its transient axpys.  Absorbing reward-0 states keep
// +0 coefficients at every level, so they stay out of the tiles and run
// only their transient axpys.  A tile works lane-major in a small
// scratch: its states listed by reward class, each (h, k) step of a
// sweep is one vector loop over the tile's members of the matching
// classes, and each
// lane c(h*, n, k) is read once for every lattice point of reward
// interval h*, each (point, state) sum adding its terms in ascending k.
// Every state's value comes from the same expressions in the same (h, k)
// order as a serial sweep, so the bits are the same at any thread count,
// tiling or SIMD width.  The Bernstein basis reads a log-factorial table
// built once per call instead of calling lgamma for every (point, n, k).
//
// The quantity the checker needs follows by complementation:
//   Pr{Y_t <= r, X_t in T} = Pr{X_t in T} - Pr{Y_t > r, X_t in T},
// and the transient term Pr{X_t in T} falls out of the same pass (the
// powers P^n v are the h=1 recursion base).
#pragma once

#include "core/engines/engine.hpp"

namespace csrl {

/// Section 4.4's engine.  `epsilon` is the a-priori bound on the Poisson
/// truncation error.
class SericolaEngine : public JointDistributionEngine {
 public:
  explicit SericolaEngine(double epsilon = 1e-9);

  /// Batched lattice evaluation.  The c(h, n, k) recursion depends on
  /// neither t nor r, so one coefficient pass to the deepest truncation
  /// depth serves every grid point; only the Poisson windows (per t) and
  /// the Bernstein accumulation (per point) are point-specific.  A T x R
  /// grid therefore costs about one (max t, max r) solve instead of T * R.
  std::vector<std::vector<double>> joint_probability_all_starts_grid(
      const Mrm& model, std::span<const double> times,
      std::span<const double> rewards, const StateSet& target) const override;

  std::string name() const override;

  double epsilon() const { return epsilon_; }

  /// The truncation depth N_eps chosen for a given model/horizon — the "N"
  /// column of the paper's Table 2.  Exposed for benches and tests.
  std::size_t truncation_depth(const Mrm& model, double t) const;

 private:
  /// Core recursion for a set of non-trivial (t, r) points: one coefficient
  /// recursion to the deepest window serves every point, with one transient
  /// accumulator per distinct t and one Bernstein accumulator per point.
  /// Each returned vector is bitwise identical to the single-point pass for
  /// its (t, r) — see DESIGN.md section 3d for the argument.
  std::vector<std::vector<double>> all_starts_points(
      const Mrm& model, std::span<const std::pair<double, double>> points,
      const StateSet& target) const;

  double epsilon_;
};

}  // namespace csrl
