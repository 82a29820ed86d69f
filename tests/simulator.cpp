#include "simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace csrl {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

SimulationEstimate summarise(std::size_t hits, std::size_t samples) {
  SimulationEstimate estimate;
  estimate.samples = samples;
  estimate.probability =
      static_cast<double>(hits) / static_cast<double>(samples);
  estimate.half_width_95 =
      1.96 * std::sqrt(estimate.probability * (1.0 - estimate.probability) /
                       static_cast<double>(samples));
  return estimate;
}

}  // namespace

Simulator::Simulator(const Mrm& model, SimulationOptions options)
    : model_(&model), options_(options), rng_(options.seed) {
  if (options_.samples == 0)
    throw ModelError("Simulator: need at least one sample");
  if (model.num_states() == 0) throw ModelError("Simulator: empty model");
}

std::size_t Simulator::sample_initial_state() {
  const auto& alpha = model_->initial_distribution();
  double u = rng_.next_double();
  for (std::size_t s = 0; s < alpha.size(); ++s) {
    u -= alpha[s];
    if (u < 0.0) return s;
  }
  // Floating-point slack: fall back to the last state with mass.
  for (std::size_t s = alpha.size(); s-- > 0;)
    if (alpha[s] > 0.0) return s;
  throw ModelError("Simulator: initial distribution has no mass");
}

std::size_t Simulator::sample_successor(std::size_t state) {
  const double exit = model_->chain().exit_rate(state);
  double u = rng_.next_double() * exit;
  const auto row = model_->rates().row(state);
  for (const auto& e : row) {
    u -= e.value;
    if (u < 0.0) return e.col;
  }
  return row.back().col;
}

bool Simulator::sample_until(const StateSet& phi, const StateSet& psi,
                             Interval time, Interval reward) {
  std::size_t state = sample_initial_state();
  double now = 0.0;     // arrival time in `state`
  double earned = 0.0;  // accumulated reward at arrival

  while (true) {
    const double rho = model_->reward(state);
    const double exit = model_->chain().exit_rate(state);
    const double sojourn =
        exit > 0.0 ? -std::log1p(-rng_.next_double()) / exit : kInf;
    const double departure = now + sojourn;

    if (psi.contains(state)) {
      // Does a qualifying instant t' lie inside this sojourn?  t' must
      // respect both interval bounds, with the reward constraint mapped
      // through the linear growth y(t') = earned + rho (t' - now).
      double lower = std::max(now, time.lo);
      double upper = std::min({departure, time.hi});
      if (rho > 0.0) {
        lower = std::max(lower, now + (reward.lo - earned) / rho);
        upper = std::min(upper, now + (reward.hi - earned) / rho);
      } else {
        if (earned < reward.lo) lower = kInf;   // never reaches the window
        if (earned > reward.hi) upper = -kInf;  // already past it
      }
      if (lower <= upper) {
        // The prefix up to `now` is phi-clean by induction; a qualifying
        // instant strictly after arrival additionally needs phi to hold
        // while waiting in this state.
        if (lower <= now || phi.contains(state)) return true;
      }
    }

    // No satisfaction here: the path may only continue through phi-states.
    if (!phi.contains(state)) return false;
    if (exit == 0.0) return false;  // trapped forever, psi out of reach

    now = departure;
    earned += rho * sojourn;
    const std::size_t next = sample_successor(state);
    earned += model_->impulse(state, next);  // fires at the jump instant
    state = next;
    // Hard failure bounds: time only moves forward, reward only grows.
    if (now > time.hi || earned > reward.hi) return false;
  }
}

SimulationEstimate Simulator::until_probability(const StateSet& phi,
                                                const StateSet& psi,
                                                Interval time, Interval reward) {
  const std::size_t n = model_->num_states();
  if (phi.size() != n || psi.size() != n)
    throw ModelError("Simulator::until_probability: universe mismatch");
  std::size_t hits = 0;
  for (std::size_t i = 0; i < options_.samples; ++i)
    if (sample_until(phi, psi, time, reward)) ++hits;
  return summarise(hits, options_.samples);
}

SimulationEstimate Simulator::joint_probability(double t, double r,
                                                const StateSet& target) {
  if (target.size() != model_->num_states())
    throw ModelError("Simulator::joint_probability: universe mismatch");
  if (!(t >= 0.0) || !(r >= 0.0))
    throw ModelError("Simulator::joint_probability: bounds must be >= 0");

  std::size_t hits = 0;
  for (std::size_t i = 0; i < options_.samples; ++i) {
    std::size_t state = sample_initial_state();
    double now = 0.0;
    double earned = 0.0;
    while (true) {
      const double exit = model_->chain().exit_rate(state);
      const double sojourn =
          exit > 0.0 ? -std::log1p(-rng_.next_double()) / exit : kInf;
      if (now + sojourn >= t) {
        earned += model_->reward(state) * (t - now);
        if (earned <= r && target.contains(state)) ++hits;
        break;
      }
      now += sojourn;
      earned += model_->reward(state) * sojourn;
      const std::size_t next = sample_successor(state);
      earned += model_->impulse(state, next);
      state = next;
      if (earned > r) break;  // rewards are non-negative: no way back
    }
  }
  return summarise(hits, options_.samples);
}

SimulationEstimate Simulator::expected_accumulated_reward(double t) {
  if (!(t >= 0.0))
    throw ModelError("Simulator::expected_accumulated_reward: t must be >= 0");
  double sum = 0.0;
  double sum_squares = 0.0;
  for (std::size_t i = 0; i < options_.samples; ++i) {
    std::size_t state = sample_initial_state();
    double now = 0.0;
    double earned = 0.0;
    while (true) {
      const double exit = model_->chain().exit_rate(state);
      const double sojourn =
          exit > 0.0 ? -std::log1p(-rng_.next_double()) / exit : kInf;
      if (now + sojourn >= t) {
        earned += model_->reward(state) * (t - now);
        break;
      }
      now += sojourn;
      earned += model_->reward(state) * sojourn;
      const std::size_t next = sample_successor(state);
      earned += model_->impulse(state, next);
      state = next;
    }
    sum += earned;
    sum_squares += earned * earned;
  }
  const auto n = static_cast<double>(options_.samples);
  SimulationEstimate estimate;
  estimate.samples = options_.samples;
  estimate.probability = sum / n;  // the mean, despite the field name
  const double variance =
      std::max(0.0, sum_squares / n - estimate.probability * estimate.probability);
  estimate.half_width_95 = 1.96 * std::sqrt(variance / n);
  return estimate;
}

}  // namespace csrl
