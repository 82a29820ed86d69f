// The expected-reward operator R (an implemented extension; the measures
// follow the conventions later probabilistic model checkers established).
#include <limits>
#include <unordered_map>

#include "core/checker.hpp"
#include "core/reward_ops.hpp"
#include "ctmc/graph.hpp"
#include "util/error.hpp"

namespace csrl {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Expected reward accumulated until first hitting `target`, for every
/// start state; +infinity where the hit is not almost sure.  Costs are
/// per-visit expectations on the embedded DTMC:
///   cost(s) = rho(s)/E(s) + sum_{s'} P(s,s') iota(s,s')
/// (the second term is exactly (effective - rho)/E).
std::vector<double> reachability_reward(const Mrm& model,
                                        const StateSet& target,
                                        const SolverOptions& solver) {
  const std::size_t n = model.num_states();
  std::vector<double> result(n, 0.0);
  if (target.count() == n) return result;

  // Qualitative analysis of F target.
  const StateSet not_target = target.complement();
  const StateSet can_reach =
      backward_reachable(model.rates(), target, not_target);
  const StateSet never = can_reach.complement();
  const StateSet not_sure =
      backward_reachable(model.rates(), never, not_target);
  const StateSet sure = not_sure.complement();

  for (std::size_t s : not_sure.members()) result[s] = kInf;

  // Solve on the sure-but-not-yet-there states.  Prob-1-ness is closed
  // under successors outside the target, so the system never touches an
  // infinite value.
  const StateSet solve_states = sure - target;
  const std::vector<std::size_t> order = solve_states.members();
  if (order.empty()) return result;

  std::unordered_map<std::size_t, std::size_t> compact;
  compact.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) compact.emplace(order[i], i);

  const CsrMatrix p = model.chain().embedded_dtmc();
  const std::vector<double> effective = effective_reward_rates(model);
  CsrBuilder a(order.size(), order.size());
  std::vector<double> b(order.size(), 0.0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t s = order[i];
    const double exit = model.chain().exit_rate(s);
    // exit > 0 is guaranteed: an absorbing non-target state cannot be
    // "sure" to reach the target.
    b[i] = effective[s] / exit;
    for (const auto& e : p.row(s)) {
      if (const auto it = compact.find(e.col); it != compact.end())
        a.add(i, it->second, e.value);
    }
  }
  const std::vector<double> x = solve_fixpoint(a.build(), b, solver);
  for (std::size_t i = 0; i < order.size(); ++i) result[order[i]] = x[i];
  return result;
}

}  // namespace

std::vector<double> Checker::reward_values(const Formula& f) const {
  switch (f.reward_query_kind()) {
    case RewardQuery::kCumulative:
      return expected_accumulated_reward_all_starts(
          *model_, f.reward_parameter(), options_.transient);
    case RewardQuery::kInstantaneous:
      return expected_instantaneous_reward_all_starts(
          *model_, f.reward_parameter(), options_.transient);
    case RewardQuery::kReachability:
      return reachability_reward(*model_, sat_internal(*f.reward_target()),
                                 options_.solver);
    case RewardQuery::kSteadyState:
      return long_run_average(effective_reward_rates(*model_));
  }
  throw Error("reward_values: invalid reward query");
}

}  // namespace csrl
