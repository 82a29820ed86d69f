#include "core/batch.hpp"

#include <cmath>
#include <utility>

#include "core/checker.hpp"
#include "mrm/transform.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace csrl {

namespace {

std::uint64_t bucket_key(std::uint64_t model_fingerprint, const Formula& f) {
  return hashing::mix(hashing::mix(hashing::kOffset, model_fingerprint),
                      f.hash());
}

void validate_axis(std::span<const double> axis, const char* what) {
  if (axis.empty())
    throw ModelError(std::string("until_grid: the ") + what +
                     " axis must not be empty");
  for (double v : axis)
    if (!(v >= 0.0) || !std::isfinite(v))
      throw ModelError(std::string("until_grid: every ") + what +
                       " bound must be finite and >= 0");
}

}  // namespace

std::optional<StateSet> SatCache::find(std::uint64_t model_fingerprint,
                                       const Formula& f) {
  // The key and the canonical form derive from the arguments alone;
  // computing them outside the lock keeps the critical section to the
  // lookup, the string compares and the hit copy.
  const std::uint64_t key = bucket_key(model_fingerprint, f);
  const std::string canonical = f.to_string();
  MutexLock lock(mutex_);
  const auto it = buckets_.find(key);
  if (it != buckets_.end()) {
    for (const Entry& entry : it->second) {
      if (entry.canonical == canonical) {
        ++stats_.hits;
        return entry.sat;
      }
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

void SatCache::insert(std::uint64_t model_fingerprint, const Formula& f,
                      StateSet sat) {
  const std::uint64_t key = bucket_key(model_fingerprint, f);
  std::string canonical = f.to_string();
  MutexLock lock(mutex_);
  std::vector<Entry>& bucket = buckets_[key];
  for (Entry& entry : bucket) {
    if (entry.canonical == canonical) {
      entry.sat = std::move(sat);
      return;
    }
  }
  bucket.push_back({std::move(canonical), std::move(sat)});
  ++size_;
}

std::size_t SatCache::size() const {
  MutexLock lock(mutex_);
  return size_;
}

SatCache::Stats SatCache::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

const std::vector<double>& BatchResult::at(std::size_t time_index,
                                           std::size_t reward_index) const {
  if (time_index >= times.size() || reward_index >= rewards.size())
    throw ModelError("BatchResult::at: lattice index out of range");
  return per_state[time_index * rewards.size() + reward_index];
}

double BatchResult::value_at(std::size_t time_index,
                             std::size_t reward_index) const {
  const std::vector<double>& values = at(time_index, reward_index);
  if (initial_state >= values.size())
    throw ModelError(
        "BatchResult::value_at: the initial distribution is not a point "
        "mass; read at() against your own distribution instead");
  return values[initial_state];
}

std::vector<std::vector<double>> Checker::until_grid_sets(
    const StateSet& phi, const StateSet& psi, std::span<const double> times,
    std::span<const double> rewards) const {
  // Theorem 1: one amalgamating reduction serves the whole lattice — it
  // depends on the Sat sets only, not on the bounds.
  const UntilReduction reduction = reduce_for_until(*model_, phi, psi);
  StateSet target(reduction.model.num_states());
  target.insert(reduction.success_state);

  const auto engine = make_engine(options_);
  const std::vector<std::vector<double>> h =
      engine->joint_probability_all_starts_grid(reduction.model, times,
                                                rewards, target);

  const std::size_t n = model_->num_states();
  std::vector<std::vector<double>> grid(h.size());
  for (std::size_t g = 0; g < h.size(); ++g) {
    grid[g].assign(n, 0.0);
    for (std::size_t s = 0; s < n; ++s)
      grid[g][s] = h[g][reduction.state_map[s]];
  }
  return grid;
}

BatchResult Checker::until_grid_internal(const BatchQuery& query) const {
  if (!query.psi)
    throw ModelError("until_grid: the psi (right-hand side) formula is "
                     "required");
  validate_axis(query.times, "time");
  validate_axis(query.rewards, "reward");

  CSRL_SPAN("core/until_grid");

  const std::size_t n = model_->num_states();
  const StateSet phi_set =
      query.phi ? sat_internal(*query.phi) : StateSet(n, /*filled=*/true);
  const StateSet psi_set = sat_internal(*query.psi);

  BatchResult result;
  result.times = query.times;
  result.rewards = query.rewards;
  if (psi_set.empty()) {
    // As in until_probabilities: an unsatisfiable right-hand side fails
    // surely, everywhere on the lattice.
    result.per_state.assign(query.times.size() * query.rewards.size(),
                            std::vector<double>(n, 0.0));
    return result;
  }
  result.per_state =
      until_grid_sets(phi_set, psi_set, query.times, query.rewards);
  return result;
}

}  // namespace csrl
