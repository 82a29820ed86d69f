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
// After T = t/d iterations,
//
//   Pr{Y_t <= r, X_t in S'}  ~  sum_{s in S'} sum_{k=0}^{R} F^T(s, k) d,
//
// with R = r/d.  We include k = 0 in the sum (the paper starts at k = 1):
// the k = 0 column carries the probability *atom* of paths that only ever
// visited zero-reward states, which is genuinely part of {Y_t <= r}.
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

class Workspace;

/// Section 4.3's engine.  `step` is the discretisation step d.  The
/// per-state recurrence sweep runs on `pool` (nullptr = the shared pool);
/// results are bit-identical at any thread count because each state's row
/// of F is written by exactly one chunk.  `rhs_block` is the multi-start
/// block width (TransientOptions::rhs_block semantics: 0 = automatic via
/// CSRL_RHS_BLOCK / kDefaultRhsBlock, 1 disables): the all-starts grid
/// path propagates up to that many start states' F recursions through one
/// lane-interleaved sweep instead of one full sweep per start state,
/// bitwise identical per lane to the one-start runs.
class DiscretisationEngine : public JointDistributionEngine {
 public:
  explicit DiscretisationEngine(double step,
                                std::shared_ptr<ThreadPool> pool = nullptr,
                                std::size_t rhs_block = 0);

  /// General-window until (the paper's Section-6 outlook: "time- and
  /// reward intervals of a more general nature"): the probability, from
  /// the model's initial distribution, of
  ///
  ///     Phi U^{[t1,t2]}_{[r1,r2]} Psi
  ///
  /// with all four bounds arbitrary (upper bounds finite).  The joint
  /// time/reward grid makes this a natural extension of the Tijms-Veldman
  /// scheme: mass flows as usual through Phi-states, arrivals in
  /// (Psi & !Phi)-states are classified on the spot, mass sitting in
  /// (Psi & Phi)-states is harvested as soon as both windows are open,
  /// and mass whose reward exceeds r2 (or whose clock exceeds t2) can
  /// never qualify again because both coordinates are monotone.
  /// Error O(d), like the joint distribution.  Impulse rewards supported.
  /// Cross-validated against the Monte-Carlo simulator, which implements
  /// the same semantics by an unrelated method.
  double interval_until(const Mrm& model, const StateSet& phi,
                        const StateSet& psi, Interval time,
                        Interval reward) const;

  /// Batched lattice evaluation.  Column k of F^{j+1} depends only on
  /// columns <= k of F^j (reward shifts are non-negative), so one sweep
  /// over a grid wide enough for the largest reward bound leaves every
  /// lower column bit-identical to a narrower run; each grid point is
  /// harvested from the shared F array the moment its own step count j =
  /// t/d is reached.  A T x R grid thus costs one (max t, max r) run.
  std::vector<JointDistribution> joint_distribution_grid(
      const Mrm& model, std::span<const double> times,
      std::span<const double> rewards) const override;

  /// Per-start-state form.  The scheme propagates a density forward from
  /// one initial distribution, so every start state needs its own F
  /// recursion; groups of up to rhs_block start states share one
  /// lane-interleaved sweep.  The paper (like the forward form) evaluates
  /// single-initial-state queries only.
  std::vector<std::vector<double>> joint_probability_all_starts_grid(
      const Mrm& model, std::span<const double> times,
      std::span<const double> rewards, const StateSet& target) const override;

  std::string name() const override;

  double step() const { return step_; }

 private:
  /// The Tijms-Veldman sweep.  All `models` share rates, rewards and
  /// labelling and differ only in their initial distribution (one lane per
  /// start state in joint_probability_all_starts_grid, a single lane in
  /// joint_distribution_grid); one sweep carries models.size()
  /// lane-interleaved copies of the F recursion (F[(s * width + k) * L + b]
  /// is lane b's cell), so the model-dependent factors stream once per
  /// step instead of once per start.  Per lane the recursion performs the
  /// identical per-cell arithmetic of a one-lane run, so result[b] does
  /// not depend on which lanes share the sweep.  The F arrays are leased
  /// from `workspace` (nullptr: plain vectors); models.size() must lie in
  /// [1, kMaxRhsBlock].
  std::vector<std::vector<JointDistribution>> joint_distribution_grid_block(
      std::span<const Mrm> models, std::span<const double> times,
      std::span<const double> rewards, Workspace* workspace) const;

  /// Reward-monotonicity slack of the grid postcondition.
  double monotone_slack(const Mrm& model, std::span<const double> times) const;

  double step_;
  std::size_t rhs_block_;  // resolved effective width, in [1, kMaxRhsBlock]
};

}  // namespace csrl
