#include "models/synthetic.hpp"

#include <bit>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace csrl {

Mrm birth_death_mrm(std::size_t num_states, double birth_rate,
                    double death_rate) {
  if (num_states == 0) throw ModelError("birth_death_mrm: need >= 1 state");
  CsrBuilder rates(num_states, num_states);
  std::vector<double> rewards(num_states, 0.0);
  Labelling labelling(num_states);
  for (std::size_t i = 0; i < num_states; ++i) {
    if (i + 1 < num_states) rates.add(i, i + 1, birth_rate);
    if (i > 0) rates.add(i, i - 1, death_rate);
    rewards[i] = static_cast<double>(i);
  }
  labelling.add_label(0, "empty");
  labelling.add_label(num_states - 1, "full");
  return Mrm(Ctmc(rates.build()), std::move(rewards), std::move(labelling),
             /*initial_state=*/0);
}

Mrm tandem_queue_mrm(std::size_t capacity1, std::size_t capacity2,
                     double lambda, double mu1, double mu2) {
  const std::size_t w1 = capacity1 + 1;
  const std::size_t w2 = capacity2 + 1;
  const std::size_t n = w1 * w2;
  const auto id = [w2](std::size_t q1, std::size_t q2) { return q1 * w2 + q2; };

  CsrBuilder rates(n, n);
  std::vector<double> rewards(n, 0.0);
  Labelling labelling(n);
  for (std::size_t q1 = 0; q1 <= capacity1; ++q1) {
    for (std::size_t q2 = 0; q2 <= capacity2; ++q2) {
      const std::size_t s = id(q1, q2);
      rewards[s] = static_cast<double>(q1 + q2);
      if (q1 < capacity1) rates.add(s, id(q1 + 1, q2), lambda);
      if (q1 > 0 && q2 < capacity2) rates.add(s, id(q1 - 1, q2 + 1), mu1);
      if (q2 > 0) rates.add(s, id(q1, q2 - 1), mu2);
      if (q1 == 0 && q2 == 0) labelling.add_label(s, "empty");
      if (q1 == capacity1) labelling.add_label(s, "full1");
      if (q2 == capacity2) labelling.add_label(s, "full2");
      if (q1 == capacity1 && q2 == capacity2) labelling.add_label(s, "blocked");
    }
  }
  // Register all propositions even if some never hold for small capacities.
  for (const char* ap : {"empty", "full1", "full2", "blocked"})
    labelling.add_proposition(ap);
  return Mrm(Ctmc(rates.build()), std::move(rewards), std::move(labelling),
             /*initial_state=*/0);
}

Mrm independent_machines_mrm(std::size_t machines, double failure_rate,
                             double repair_rate) {
  if (machines == 0 || machines > 20)
    throw ModelError("independent_machines_mrm: need 1..20 machines");
  const std::size_t n = std::size_t{1} << machines;
  CsrBuilder rates(n, n);
  std::vector<double> rewards(n, 0.0);
  Labelling labelling(n);
  for (std::size_t mask = 0; mask < n; ++mask) {
    rewards[mask] = static_cast<double>(std::popcount(mask));
    for (std::size_t i = 0; i < machines; ++i) {
      const std::size_t bit = std::size_t{1} << i;
      if (mask & bit)
        rates.add(mask, mask & ~bit, failure_rate);
      else
        rates.add(mask, mask | bit, repair_rate);
    }
  }
  labelling.add_label(n - 1, "all_up");
  labelling.add_label(0, "all_down");
  return Mrm(Ctmc(rates.build()), std::move(rewards), std::move(labelling),
             n - 1);
}

Mrm random_mrm(std::uint64_t seed, std::size_t num_states, double density,
               double max_rate, std::uint32_t max_reward) {
  if (num_states == 0) throw ModelError("random_mrm: need >= 1 state");
  SplitMix64 rng(seed);

  CsrBuilder rates(num_states, num_states);
  std::vector<double> rewards(num_states, 0.0);
  Labelling labelling(num_states);
  labelling.add_proposition("a");
  labelling.add_proposition("b");

  for (std::size_t s = 0; s < num_states; ++s) {
    rewards[s] = static_cast<double>(rng.next_below(max_reward + 1));
    if (rng.next_double() < 0.5) labelling.add_label(s, "a");
    if (rng.next_double() < 0.5) labelling.add_label(s, "b");

    if (num_states == 1) continue;
    const auto extra = static_cast<std::size_t>(
        density * static_cast<double>(num_states - 1));
    const std::size_t degree = 1 + rng.next_below(extra + 1);
    for (std::size_t e = 0; e < degree; ++e) {
      std::size_t target = rng.next_below(num_states - 1);
      if (target >= s) ++target;  // no self-loops, keeps models aperiodic
      rates.add(s, target, rng.next_double(0.05, max_rate));
    }
  }
  return Mrm(Ctmc(rates.build()), std::move(rewards), std::move(labelling),
             /*initial_state=*/0);
}

Mrm replicated_mrm(const Mrm& base, std::size_t clones) {
  if (clones == 0) throw ModelError("replicated_mrm: need >= 1 clone");
  const std::size_t n = base.num_states();
  const std::size_t total = clones * n;
  CsrBuilder rates(total, total);
  CsrBuilder impulses(total, total);
  std::vector<double> rewards(total, 0.0);
  Labelling labelling(total);
  for (const std::string& name : base.labelling().propositions())
    labelling.add_proposition(name);
  std::vector<double> initial(total, 0.0);
  const double share = 1.0 / static_cast<double>(clones);
  for (std::size_t c = 0; c < clones; ++c) {
    const std::size_t offset = c * n;
    for (std::size_t s = 0; s < n; ++s) {
      for (const CsrEntry& e : base.rates().row_unchecked(s))
        rates.add(offset + s, offset + e.col, e.value);
      if (base.has_impulse_rewards())
        for (const CsrEntry& e : base.impulse_rewards().row_unchecked(s))
          impulses.add(offset + s, offset + e.col, e.value);
      rewards[offset + s] = base.reward(s);
      for (const std::string& name : base.labelling().labels_of(s))
        labelling.add_label(offset + s, name);
      initial[offset + s] = base.initial_distribution()[s] * share;
    }
  }
  Mrm replicated(Ctmc(rates.build()), std::move(rewards),
                 std::move(labelling), std::move(initial));
  if (base.has_impulse_rewards())
    replicated = replicated.with_impulses(impulses.build());
  return replicated;
}

}  // namespace csrl
