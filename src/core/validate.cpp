#include "core/validate.hpp"

#include <cmath>
#include <cstring>

#include "obs/obs.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace csrl {

namespace {

std::string fmt(double v) { return std::to_string(v); }

/// Set while validate_joint_grid re-runs an engine through its
/// recompute hook, so the nested run's own postcondition does not
/// recurse forever.
thread_local bool tls_in_recompute = false;

}  // namespace

void Validator::fail(const std::string& what) const {
  std::string message = subject_ + ": " + what;
  // Same self-location scheme as validation::fail (util/contracts.hpp):
  // the innermost active span names the pipeline phase that produced the
  // offending data.
  if (const std::string span = obs::current_span_path(); !span.empty())
    message += " (span: " + span + ")";
  throw ContractViolation(std::move(message));
}

void Validator::probability_vector(std::span<const double> v,
                                   double tol) const {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i]))
      fail("entry " + std::to_string(i) + " is non-finite");
    if (v[i] < -tol || v[i] > 1.0 + tol)
      fail("entry " + std::to_string(i) + " = " + fmt(v[i]) +
           " outside [0, 1] (tolerance " + fmt(tol) + ")");
  }
}

void Validator::monotone_nondecreasing(std::span<const double> lo,
                                       std::span<const double> hi,
                                       double slack) const {
  if (lo.size() != hi.size())
    fail("size mismatch: " + std::to_string(lo.size()) + " vs " +
         std::to_string(hi.size()));
  for (std::size_t i = 0; i < lo.size(); ++i)
    if (lo[i] > hi[i] + slack)
      fail("entry " + std::to_string(i) + " decreases from " + fmt(lo[i]) +
           " to " + fmt(hi[i]) + " as the bound grows (slack " + fmt(slack) +
           ")");
}

void Validator::bitwise_equal(std::span<const double> a,
                              std::span<const double> b) const {
  if (a.size() != b.size())
    fail("size mismatch: " + std::to_string(a.size()) + " vs " +
         std::to_string(b.size()));
  if (a.size() > 0 &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i)
      if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0)
        fail("entry " + std::to_string(i) + " differs bitwise: " + fmt(a[i]) +
             " vs " + fmt(b[i]));
  }
}

void validate_joint_grid(
    const std::string& engine_name, std::span<const double> times,
    std::span<const double> rewards,
    std::span<const std::vector<double>> grid, double monotone_slack,
    const std::function<std::vector<std::vector<double>>(
        std::span<const double>)>& recompute_at_rewards) {
  const std::size_t num_rewards = rewards.size();
  const auto cell_validator = [&](std::size_t g) {
    return Validator(engine_name + " joint distribution (t=" +
                     fmt(times[g / num_rewards]) +
                     ", r=" + fmt(rewards[g % num_rewards]) + ")");
  };
  if (grid.size() != times.size() * num_rewards)
    throw ContractViolation(engine_name + " joint grid: " +
                            std::to_string(grid.size()) + " cells for a " +
                            std::to_string(times.size()) + " x " +
                            std::to_string(num_rewards) + " lattice");

  // The engines' a-priori error bounds are per-entry, so a result may
  // legitimately poke above 1 by the truncation epsilon; 1e-6 covers
  // every configuration the options expose.
  for (std::size_t g = 0; g < grid.size(); ++g)
    cell_validator(g).probability_vector(grid[g], 1e-6);

  // Within each time row a smaller r can only shrink Pr{Y_t <= r, ...};
  // every reward pair is compared, so unsorted axes are fine.
  for (std::size_t i = 0; i < times.size(); ++i)
    for (std::size_t a = 0; a < num_rewards; ++a)
      for (std::size_t b = 0; b < num_rewards; ++b)
        if (rewards[a] <= rewards[b])
          cell_validator(i * num_rewards + b)
              .monotone_nondecreasing(grid[i * num_rewards + a],
                                      grid[i * num_rewards + b],
                                      monotone_slack);

  if (!validation::paranoid() || tls_in_recompute || !recompute_at_rewards)
    return;
  tls_in_recompute = true;
  struct Reset {
    ~Reset() { tls_in_recompute = false; }
  } reset;

  // 1-thread vs N-thread agreement: the same lattice with every
  // parallel_for forced inline must match bit for bit.
  {
    ForceSerialGuard serial;
    const std::vector<std::vector<double>> serial_grid =
        recompute_at_rewards(rewards);
    for (std::size_t g = 0; g < grid.size(); ++g)
      cell_validator(g).bitwise_equal(serial_grid.at(g), grid[g]);
  }

  // Monotonicity across the halved lattice.  Halved bounds some engines
  // cannot represent (e.g. off the discretisation grid) are a skipped
  // check, not a violation — ModelError is precondition vocabulary, not
  // contract vocabulary.
  std::vector<double> halved(rewards.begin(), rewards.end());
  for (double& r : halved) r *= 0.5;
  try {
    const std::vector<std::vector<double>> at_half =
        recompute_at_rewards(halved);
    for (std::size_t g = 0; g < grid.size(); ++g)
      cell_validator(g).monotone_nondecreasing(at_half.at(g), grid[g],
                                               monotone_slack);
  } catch (const ContractViolation&) {
    throw;
  } catch (const ModelError&) {
    // Halved bounds rejected by the engine's preconditions; skip.
  }
}

}  // namespace csrl
