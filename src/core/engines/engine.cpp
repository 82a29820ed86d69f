#include "core/engines/engine.hpp"

#include <algorithm>
#include <cmath>

#include "core/validate.hpp"
#include "ctmc/uniformisation.hpp"
#include "obs/obs.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace csrl {

double JointDistribution::probability_in(const StateSet& states) const {
  double acc = 0.0;
  for (std::size_t s : states.members()) {
    if (s >= per_state.size())
      throw ModelError("JointDistribution::probability_in: universe mismatch");
    acc += per_state[s];
  }
  return acc;
}

JointDistribution JointDistributionEngine::joint_distribution(const Mrm& model,
                                                              double t,
                                                              double r) const {
  const double times[1] = {t};
  const double rewards[1] = {r};
  return std::move(joint_distribution_grid(model, times, rewards).front());
}

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
    std::span<const double> rewards,
    const std::vector<JointDistribution>& grid, double slack) const {
  if (!CSRL_CONTRACTS_ACTIVE()) return;
  const auto per_state = [](const std::vector<JointDistribution>& cells) {
    std::vector<std::vector<double>> view;
    view.reserve(cells.size());
    for (const JointDistribution& cell : cells) view.push_back(cell.per_state);
    return view;
  };
  validate_joint_grid(name(), times, rewards, per_state(grid), slack,
                      [&](std::span<const double> rr) {
                        return per_state(
                            joint_distribution_grid(model, times, rr));
                      });
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

std::vector<JointDistribution> joint_distribution_grid_reference(
    const JointDistributionEngine& engine, const Mrm& model,
    std::span<const double> times, std::span<const double> rewards) {
  std::vector<JointDistribution> grid;
  grid.reserve(times.size() * rewards.size());
  for (double t : times)
    for (double r : rewards)
      grid.push_back(engine.joint_distribution(model, t, r));
  return grid;
}

namespace {

/// The trivial cases of Pr{Y_t <= r, X_t = j} from the initial
/// distribution; returns true and fills `out` if (t, r) is one.
bool joint_distribution_trivial_case(const Mrm& model, double t, double r,
                                     JointDistribution& out) {
  if (!(t >= 0.0) || !std::isfinite(t))
    throw ModelError("joint_distribution: time bound must be finite and >= 0");
  if (!(r >= 0.0) || !std::isfinite(r))
    throw ModelError("joint_distribution: reward bound must be finite and >= 0");

  const std::size_t n = model.num_states();

  // At t = 0 no reward has accumulated yet, so the joint distribution is
  // the initial distribution itself.
  if (t == 0.0 || n == 0) {
    CSRL_COUNT("p3/trivial_cases", 1);
    out.per_state = model.initial_distribution();
    out.steps = 0;
    return true;
  }

  // Y_t <= max_reward * t holds along every path — but only without
  // impulses (jumps can add reward arbitrarily often) — so a reward bound
  // at or above that level never binds and plain transient analysis is
  // exact.
  if (!model.has_impulse_rewards() && r >= model.max_reward() * t) {
    CSRL_COUNT("p3/trivial_cases", 1);
    out.per_state =
        transient_distribution(model.chain(), model.initial_distribution(), t);
    out.steps = 0;
    return true;
  }

  // r == 0 with a binding bound: Y_t stays at zero exactly on the paths
  // that never enter a positive-reward state (sojourns are almost surely
  // positive) and never fire a positive-impulse transition.  Freeze the
  // positive-reward states and reroute impulse-carrying transitions into a
  // sink, then read off the transient distribution.
  if (r == 0.0) {
    const std::size_t sink = n;
    CsrBuilder rates(n + 1, n + 1);
    for (std::size_t s = 0; s < n; ++s) {
      if (model.reward(s) > 0.0) continue;
      for (const auto& e : model.rates().row(s)) {
        const bool tainted = model.impulse(s, e.col) > 0.0;
        rates.add(s, tainted ? sink : e.col, e.value);
      }
    }
    const Ctmc frozen(rates.build());
    std::vector<double> initial = model.initial_distribution();
    initial.push_back(0.0);
    std::vector<double> pi = transient_distribution(frozen, initial, t);
    pi.pop_back();  // the sink collects the mass that broke the bound
    for (std::size_t s = 0; s < n; ++s)
      if (model.reward(s) > 0.0) pi[s] = 0.0;
    out.per_state = std::move(pi);
    out.steps = 0;
    return true;
  }

  return false;
}

/// The same trivial cases in the all-start-states shape: out[s] =
/// Pr_s{Y_t <= r, X_t in target}.
bool joint_all_starts_trivial_case(const Mrm& model, double t, double r,
                                   const StateSet& target,
                                   std::vector<double>& out) {
  if (!(t >= 0.0) || !std::isfinite(t))
    throw ModelError("joint_distribution: time bound must be finite and >= 0");
  if (!(r >= 0.0) || !std::isfinite(r))
    throw ModelError("joint_distribution: reward bound must be finite and >= 0");
  const std::size_t n = model.num_states();
  if (target.size() != n)
    throw ModelError("joint_all_starts_trivial_case: universe mismatch");

  if (t == 0.0 || n == 0) {
    out = target.indicator();
    return true;
  }

  if (!model.has_impulse_rewards() && r >= model.max_reward() * t) {
    out = transient_reach(model.chain(), target, t);
    return true;
  }

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
        transient_reach(frozen, zero_reward_targets, t);
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
    std::span<const double> rewards, std::vector<JointDistribution>& grid) {
  grid.assign(times.size() * rewards.size(), {});
  std::vector<std::size_t> live;
  for (std::size_t g = 0; g < grid.size(); ++g)
    if (!joint_distribution_trivial_case(model, times[g / rewards.size()],
                                         rewards[g % rewards.size()], grid[g]))
      live.push_back(g);
  return live;
}

std::vector<std::size_t> peel_trivial_cells(
    const Mrm& model, std::span<const double> times,
    std::span<const double> rewards, const StateSet& target,
    std::vector<std::vector<double>>& grid) {
  grid.assign(times.size() * rewards.size(), {});
  std::vector<std::size_t> live;
  for (std::size_t g = 0; g < grid.size(); ++g)
    if (!joint_all_starts_trivial_case(model, times[g / rewards.size()],
                                       rewards[g % rewards.size()], target,
                                       grid[g]))
      live.push_back(g);
  return live;
}

}  // namespace csrl
