#include "mrm/mrm.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "matrix/vector_ops.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace csrl {

namespace {

std::vector<double> point_mass(std::size_t n, std::size_t state) {
  if (state >= n) throw ModelError("Mrm: initial state out of range");
  std::vector<double> alpha(n, 0.0);
  alpha[state] = 1.0;
  return alpha;
}

void validate(const Ctmc& chain, const std::vector<double>& rewards,
              const Labelling& labelling, const std::vector<double>& initial) {
  const std::size_t n = chain.num_states();
  if (rewards.size() != n) throw ModelError("Mrm: reward vector size mismatch");
  for (std::size_t s = 0; s < n; ++s)
    if (!(rewards[s] >= 0.0) || !std::isfinite(rewards[s]))
      throw ModelError("Mrm: reward of state " + std::to_string(s) +
                       " must be finite and >= 0");
  if (labelling.num_states() != n)
    throw ModelError("Mrm: labelling universe size mismatch");
  if (initial.size() != n)
    throw ModelError("Mrm: initial distribution size mismatch");
  for (double a : initial)
    if (!(a >= 0.0) || !std::isfinite(a))
      throw ModelError("Mrm: initial distribution entries must be >= 0");
  if (n > 0 && std::abs(sum(initial) - 1.0) > 1e-9)
    throw ModelError("Mrm: initial distribution must sum to 1");
}

}  // namespace

Mrm::Mrm(Ctmc chain, std::vector<double> rewards, Labelling labelling,
         std::vector<double> initial)
    : chain_(std::move(chain)),
      rewards_(std::move(rewards)),
      labelling_(std::move(labelling)),
      initial_(std::move(initial)) {
  validate(chain_, rewards_, labelling_, initial_);
}

Mrm::Mrm(Ctmc chain, std::vector<double> rewards, Labelling labelling,
         std::size_t initial_state)
    : chain_(std::move(chain)),
      rewards_(std::move(rewards)),
      labelling_(std::move(labelling)),
      initial_(point_mass(chain_.num_states(), initial_state)) {
  validate(chain_, rewards_, labelling_, initial_);
}

Mrm Mrm::with_impulses(CsrMatrix impulses) const {
  const std::size_t n = num_states();
  if (impulses.rows() != n || impulses.cols() != n)
    throw ModelError("Mrm::with_impulses: impulse matrix must be " +
                     std::to_string(n) + "x" + std::to_string(n));
  for (std::size_t s = 0; s < n; ++s) {
    for (const auto& e : impulses.row(s)) {
      if (!(e.value >= 0.0) || !std::isfinite(e.value))
        throw ModelError("Mrm::with_impulses: impulses must be finite and >= 0");
      if (rates().at(s, e.col) <= 0.0)
        throw ModelError(
            "Mrm::with_impulses: impulse on (" + std::to_string(s) + ", " +
            std::to_string(e.col) + ") has no underlying transition");
    }
  }
  Mrm copy = *this;
  copy.impulses_ = std::move(impulses);
  return copy;
}

double Mrm::max_reward() const {
  double best = 0.0;
  for (double r : rewards_) best = std::max(best, r);
  return best;
}

std::vector<double> Mrm::distinct_rewards() const {
  std::vector<double> values = rewards_;
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

std::uint64_t Mrm::fingerprint() const {
  using hashing::mix;
  const std::size_t n = num_states();
  std::uint64_t h = hashing::kOffset;
  h = mix(h, static_cast<std::uint64_t>(n));
  for (std::size_t s = 0; s < n; ++s) {
    for (const auto& e : rates().row(s)) {
      h = mix(h, static_cast<std::uint64_t>(s));
      h = mix(h, static_cast<std::uint64_t>(e.col));
      h = mix(h, e.value);
    }
    h = mix(h, rewards_[s]);
    h = mix(h, initial_[s]);
  }
  h = mix(h, static_cast<std::uint64_t>(impulses_.nnz()));
  if (impulses_.nnz() > 0) {
    for (std::size_t s = 0; s < n; ++s) {
      for (const auto& e : impulses_.row(s)) {
        h = mix(h, static_cast<std::uint64_t>(s));
        h = mix(h, static_cast<std::uint64_t>(e.col));
        h = mix(h, e.value);
      }
    }
  }
  // Propositions in registration order, so relabelled models (same sets,
  // different names or order) fingerprint differently — exactly the
  // discipline Sat sets require, since they are computed from names.
  for (const std::string& prop : labelling_.propositions()) {
    h = mix(h, prop);
    for (std::size_t s : labelling_.states_with(prop).members())
      h = mix(h, static_cast<std::uint64_t>(s));
  }
  return h;
}

std::optional<std::size_t> Mrm::point_mass_state() const {
  std::optional<std::size_t> found;
  for (std::size_t s = 0; s < num_states(); ++s) {
    if (initial_[s] == 0.0) continue;
    if (initial_[s] != 1.0 || found) return std::nullopt;
    found = s;
  }
  return found;
}

std::size_t Mrm::initial_state() const {
  if (const std::optional<std::size_t> s = point_mass_state()) return *s;
  throw ModelError("Mrm: initial distribution is not a point mass");
}

}  // namespace csrl
