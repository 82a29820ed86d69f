// Engine interface for the paper's central numerical problem.
//
// Theorems 1 and 2 reduce time- and reward-bounded until (property class
// P3) to "reward-bounded instant-of-time reachability": the joint
// probability  Pr{Y_t <= r, X_t = j}  on the two-dimensional process
// (X_t, Y_t) of Figure 1, evaluated on the reduced model.  Section 4 of
// the paper develops three procedures for it; each is implemented behind
// this common interface so the checker, the benches and the cross-
// validating tests can swap them freely:
//
//   * ErlangEngine          (Section 4.2, pseudo-Erlang approximation)
//   * DiscretisationEngine  (Section 4.3, Tijms-Veldman)
//   * SericolaEngine        (Section 4.4, occupation-time distributions)
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "mrm/mrm.hpp"
#include "util/state_set.hpp"

namespace csrl {

struct TransientOptions;

/// A procedure computing the joint state/accumulated-reward distribution.
///
/// The contract has the one shape the checker's Sat recursion needs: an
/// engine implements the all-start-states lattice below, evaluating every
/// pair (times[i], rewards[j]) of the bound grid in one call and returning
/// grid-point major results (index i * rewards.size() + j).  A single
/// (t, r) query is the 1 x 1 lattice, so the point form is a thin
/// non-virtual wrapper and a point value can never drift from the
/// corresponding grid cell.  The value from an initial distribution alpha
/// is alpha . all_starts, and Pr_alpha{Y_t <= r, X_t = j} is that with
/// target {j}.  Every grid checks itself against validate_joint_grid
/// (core/validate).
class JointDistributionEngine {
 public:
  virtual ~JointDistributionEngine() = default;

  /// All-start-states lattice:
  ///   result[i * rewards.size() + j][s]
  ///       = Pr_s{Y_{t_i} <= r_j, X_{t_i} in target}.
  /// Every bound must be finite and >= 0.
  virtual std::vector<std::vector<double>> joint_probability_all_starts_grid(
      const Mrm& model, std::span<const double> times,
      std::span<const double> rewards, const StateSet& target) const = 0;

  /// The only cell of the 1 x 1 all-starts grid {t} x {r}.
  std::vector<double> joint_probability_all_starts(
      const Mrm& model, double t, double r, const StateSet& target) const;

  /// Short human-readable name ("sericola", "erlang-256", ...).
  virtual std::string name() const = 0;

 protected:
  JointDistributionEngine() = default;

  /// The grid postcondition: validate_joint_grid on a lattice the grid
  /// method just computed, with `slack` absorbing the engine's
  /// approximation error in the reward-monotonicity checks.  The paranoid
  /// recomputes call back into the grid method.  Free while contracts are
  /// off.
  void validate_grid(const Mrm& model, std::span<const double> times,
                     std::span<const double> rewards, const StateSet& target,
                     const std::vector<std::vector<double>>& grid,
                     double slack) const;
};

/// The lattice-shaped peel every grid method starts with.  Sizes `grid`
/// to times.size() x rewards.size() cells (grid-point major) and fills
/// every trivial cell exactly: t == 0 (no reward accumulated yet), r large
/// enough that the reward bound cannot bind (plain transient analysis),
/// and r == 0 (transient analysis with positive-reward states frozen).
/// The two transient cases run under `transient`, so a caller passes the
/// accuracy its own cells are computed at.  Returns the slots
/// i * rewards.size() + j of the remaining (live) cells, ascending, and
/// counts each trivial cell in the obs counter "p3/trivial_cases".
/// Throws ModelError on a negative or non-finite bound.
std::vector<std::size_t> peel_trivial_cells(
    const Mrm& model, std::span<const double> times,
    std::span<const double> rewards, const StateSet& target,
    const TransientOptions& transient,
    std::vector<std::vector<double>>& grid);

/// Point-by-point grid reference: loops the 1 x 1 wrapper over the
/// lattice, grid-point major.  The differential tests and the bench SpMV
/// comparisons diff the engines' multi-point lattices against it.
std::vector<std::vector<double>> joint_grid_reference(
    const JointDistributionEngine& engine, const Mrm& model,
    std::span<const double> times, std::span<const double> rewards,
    const StateSet& target);

}  // namespace csrl
