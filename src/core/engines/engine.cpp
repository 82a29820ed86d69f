#include "core/engines/engine.hpp"

#include <cmath>

#include "core/validate.hpp"
#include "ctmc/uniformisation.hpp"
#include "obs/obs.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace csrl {

std::vector<double> JointDistributionEngine::joint_probability_all_starts(
    const Mrm& model, double t, double r, const StateSet& target) const {
  const double times[1] = {t};
  const double rewards[1] = {r};
  return std::move(
      joint_probability_all_starts_grid(model, times, rewards, target)
          .front());
}

void JointDistributionEngine::validate_grid(
    const Mrm& model, std::span<const double> times,
    std::span<const double> rewards, const StateSet& target,
    const std::vector<std::vector<double>>& grid, double slack) const {
  if (!CSRL_CONTRACTS_ACTIVE()) return;
  validate_joint_grid(name() + " all-starts", times, rewards, grid, slack,
                      [&](std::span<const double> rr) {
                        return joint_probability_all_starts_grid(model, times,
                                                                 rr, target);
                      });
}

std::vector<std::vector<double>> joint_grid_reference(
    const JointDistributionEngine& engine, const Mrm& model,
    std::span<const double> times, std::span<const double> rewards,
    const StateSet& target) {
  std::vector<std::vector<double>> grid;
  grid.reserve(times.size() * rewards.size());
  for (double t : times)
    for (double r : rewards)
      grid.push_back(engine.joint_probability_all_starts(model, t, r, target));
  return grid;
}

namespace {

/// The trivial cases of out[s] = Pr_s{Y_t <= r, X_t in target}; returns
/// true and fills `out` if (t, r) is one.
bool joint_all_starts_trivial_case(const Mrm& model, double t, double r,
                                   const StateSet& target,
                                   const TransientOptions& transient,
                                   std::vector<double>& out) {
  if (!(t >= 0.0) || !std::isfinite(t))
    throw ModelError(
        "joint_probability_all_starts: time bound must be finite and >= 0");
  if (!(r >= 0.0) || !std::isfinite(r))
    throw ModelError(
        "joint_probability_all_starts: reward bound must be finite and >= 0");
  const std::size_t n = model.num_states();
  if (target.size() != n)
    throw ModelError("joint_all_starts_trivial_case: universe mismatch");

  // At t = 0 no reward has accumulated yet: the answer is membership.
  if (t == 0.0 || n == 0) {
    out = target.indicator();
    return true;
  }

  // Y_t <= max_reward * t holds along every path — but only without
  // impulses (jumps can add reward arbitrarily often) — so a reward bound
  // at or above that level never binds and plain transient analysis is
  // exact.
  if (!model.has_impulse_rewards() && r >= model.max_reward() * t) {
    out = transient_reach(model.chain(), target, t, transient);
    return true;
  }

  // r == 0 with a binding bound: Y_t stays at zero exactly on the paths
  // that never enter a positive-reward state (sojourns are almost surely
  // positive) and never fire a positive-impulse transition.  Freeze the
  // positive-reward states, reroute impulse-carrying transitions into a
  // sink outside the target, then read off plain reachability.
  if (r == 0.0) {
    const std::size_t sink = n;
    CsrBuilder rates(n + 1, n + 1);
    StateSet zero_reward_targets(n + 1);
    for (std::size_t s = 0; s < n; ++s) {
      if (model.reward(s) > 0.0) continue;
      if (target.contains(s)) zero_reward_targets.insert(s);
      for (const auto& e : model.rates().row(s)) {
        const bool tainted = model.impulse(s, e.col) > 0.0;
        rates.add(s, tainted ? sink : e.col, e.value);
      }
    }
    const Ctmc frozen(rates.build());
    const std::vector<double> extended =
        transient_reach(frozen, zero_reward_targets, t, transient);
    out.assign(extended.begin(), extended.begin() + static_cast<long>(n));
    for (std::size_t s = 0; s < n; ++s)
      if (model.reward(s) > 0.0) out[s] = 0.0;
    return true;
  }

  return false;
}

}  // namespace

std::vector<std::size_t> peel_trivial_cells(
    const Mrm& model, std::span<const double> times,
    std::span<const double> rewards, const StateSet& target,
    const TransientOptions& transient,
    std::vector<std::vector<double>>& grid) {
  grid.assign(times.size() * rewards.size(), {});
  std::vector<std::size_t> live;
  for (std::size_t g = 0; g < grid.size(); ++g) {
    if (joint_all_starts_trivial_case(model, times[g / rewards.size()],
                                      rewards[g % rewards.size()], target,
                                      transient, grid[g]))
      CSRL_COUNT("p3/trivial_cases", 1);
    else
      live.push_back(g);
  }
  return live;
}

}  // namespace csrl
