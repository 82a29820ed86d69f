// Tijms-Veldman discretisation (Section 4.3, after [24]).
//
// Time and accumulated reward are discretised with the same step size d.
// F^j(s, k) approximates the joint density of being in state s at time j*d
// having accumulated reward k*d.  With natural-number reward rates, one
// time step in state s advances the reward index by exactly rho(s), and
// the recursion of the paper applies:
//
//   F^{j+1}(s, k) = F^j(s, k - rho(s)) (1 - E(s) d)
//                 + sum_{s'} F^j(s', k - rho(s')) R(s', s) d
//
// (the displacement of the incoming term uses the *donor* state's reward
// rho(s'), following the paper's prose — its typeset formula says rho(s),
// which disagrees with the explanation underneath it; both choices agree
// in the d -> 0 limit).  Negative reward indices denote impossible
// configurations and contribute zero.
//
// After J = t/d iterations,
//
//   Pr{Y_t <= r, X_t in S'}  ~  sum_{s in S'} sum_{k=0}^{K} F^J(s, k) d,
//
// with K = r/d.  We include k = 0 in the sum (the paper starts at k = 1):
// the k = 0 column carries the probability *atom* of paths that only ever
// visited zero-reward states, which is genuinely part of {Y_t <= r}.
//
// The scheme is linear in F^1 (the initial distribution), so the value
// from *every* start state comes out of one run of the transposed
// recursion on a remaining-reward-budget axis b:
//
//   H^0(s, b)     = 1_{S'}(s)                                    (b >= 0)
//   H^{m+1}(s, b) = (1 - E(s) d) H^m(s, b - rho(s))
//                 + sum_{s'} R(s, s') d H^m(s', b - rho(s) - iota(s, s')/d)
//
//   Pr_s{Y_t <= r, X_t in S'}  ~  H^{J-1}(s, K - rho(s))   (0 if rho(s) > K).
//
// (The forward harvest's factor d and the initial density's 1/d cancel.)
// H^0 does not depend on K, and H^{m+1} reads budgets <= b only, so one
// run to the largest budget and the longest horizon serves a whole
// lattice: cell (t_i, r_j) is read at step J_i - 1, budget K_j - rho(s).
//
// Preconditions (as in the paper): every reward rate is a natural number
// (rational rewards must be pre-scaled by the caller), t and r are
// multiples of d, and d is small enough that E(s) d < 1 for every state.
// The error decreases linearly in d while the work grows ~ d^{-2}, which
// is what bench_table4_discretisation measures.
#pragma once

#include "core/engines/engine.hpp"
#include "logic/formula.hpp"

namespace csrl {

/// Section 4.3's engine.  `step` is the discretisation step d.  Each
/// recursion step is one PhaseOperator product over a reversed budget
/// axis; results are bit-identical at any thread count because each
/// state's slice of H sums its bands in one fixed order.
class DiscretisationEngine : public JointDistributionEngine {
 public:
  explicit DiscretisationEngine(double step);

  /// General-window until (the paper's Section-6 outlook: "time- and
  /// reward intervals of a more general nature"): for every start state s,
  /// the probability of
  ///
  ///     Phi U^{[t1,t2]}_{[r1,r2]} Psi
  ///
  /// with all four bounds arbitrary (upper bounds finite).  Forward, mass
  /// flows as usual through Phi-states, arrivals in (Psi & !Phi)-states are
  /// classified on the spot, mass sitting in (Psi & Phi)-states is
  /// harvested as soon as both windows are open, and mass whose reward
  /// exceeds r2 (or whose clock exceeds t2) can never qualify again
  /// because both coordinates are monotone.  This runs the transposed
  /// recursion from t2 back to 0 on the budget axis b = r2/d - k, where
  /// the same classification becomes a pointwise map (harvest: value 1;
  /// dead: value 0), and reads each state's value at (s, b = r2/d), i.e.
  /// absolute reward 0.  One run answers every start state.  Error O(d),
  /// like the joint distribution.  Impulse rewards supported.
  /// Cross-validated against the Monte-Carlo simulator, which implements
  /// the same semantics by an unrelated method.
  std::vector<double> interval_until_all_starts(const Mrm& model,
                                                const StateSet& phi,
                                                const StateSet& psi,
                                                Interval time,
                                                Interval reward) const;

  /// All-start-states lattice: one run of the adjoint recursion H (see the
  /// file comment) to (max t, max r), read out at every lattice cell.
  std::vector<std::vector<double>> joint_probability_all_starts_grid(
      const Mrm& model, std::span<const double> times,
      std::span<const double> rewards, const StateSet& target) const override;

  std::string name() const override;

  double step() const { return step_; }

 private:
  /// Reward-monotonicity slack of the grid postcondition.
  double monotone_slack(const Mrm& model, std::span<const double> times) const;

  double step_;
};

}  // namespace csrl
