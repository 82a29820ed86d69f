#include "core/validate.hpp"

#include <algorithm>
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

void Validator::csr_structure(const CsrMatrix& m) const {
  std::size_t covered = 0;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto entries = m.row(r);
    covered += entries.size();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].col >= m.cols())
        fail("row " + std::to_string(r) + " column index " +
             std::to_string(entries[i].col) + " out of range for " +
             std::to_string(m.rows()) + "x" + std::to_string(m.cols()));
      if (i > 0 && entries[i - 1].col >= entries[i].col)
        fail("row " + std::to_string(r) + " columns not strictly increasing (" +
             std::to_string(entries[i - 1].col) + " before " +
             std::to_string(entries[i].col) +
             "): unsorted or duplicate entries");
      if (!std::isfinite(entries[i].value))
        fail("row " + std::to_string(r) + " column " +
             std::to_string(entries[i].col) + " stores a non-finite value");
    }
  }
  if (covered != m.nnz())
    fail("row extents cover " + std::to_string(covered) +
         " entries but nnz() is " + std::to_string(m.nnz()));
}

void Validator::stochastic_rows(const CsrMatrix& m, double tol,
                                bool allow_substochastic) const {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double sum = 0.0;
    for (const auto& e : m.row(r)) {
      if (!(e.value >= 0.0))
        fail("row " + std::to_string(r) + " column " + std::to_string(e.col) +
             " has negative probability " + fmt(e.value));
      sum += e.value;
    }
    const bool low_ok = allow_substochastic ? sum >= -tol : sum >= 1.0 - tol;
    if (!low_ok || sum > 1.0 + tol)
      fail("row " + std::to_string(r) + " sums to " + fmt(sum) +
           (allow_substochastic ? ", outside [0, 1]" : ", not 1") +
           " (tolerance " + fmt(tol) + ")");
  }
}

void Validator::generator_rows(const CsrMatrix& m, double tol) const {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double sum = 0.0;
    double magnitude = 1.0;
    for (const auto& e : m.row(r)) {
      if (e.col == r) {
        if (e.value > tol)
          fail("row " + std::to_string(r) + " has positive diagonal " +
               fmt(e.value));
      } else if (!(e.value >= 0.0)) {
        fail("row " + std::to_string(r) + " column " + std::to_string(e.col) +
             " has negative off-diagonal rate " + fmt(e.value));
      }
      sum += e.value;
      magnitude = std::max(magnitude, std::abs(e.value));
    }
    if (std::abs(sum) > tol * magnitude)
      fail("row " + std::to_string(r) + " sums to " + fmt(sum) +
           ", not 0 (tolerance " + fmt(tol) + " x " + fmt(magnitude) + ")");
  }
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

void Validator::distribution(std::span<const double> v, double tol) const {
  probability_vector(v, tol);
  double sum = 0.0;
  for (double x : v) sum += x;
  if (std::abs(sum - 1.0) > tol)
    fail("entries sum to " + fmt(sum) + ", not 1 (tolerance " + fmt(tol) +
         ")");
}

void Validator::poisson_window(const PoissonWeights& w, double epsilon) const {
  if (w.right < w.left)
    fail("window [" + std::to_string(w.left) + ", " + std::to_string(w.right) +
         "] is empty");
  if (w.weights.size() != w.right - w.left + 1)
    fail("window [" + std::to_string(w.left) + ", " + std::to_string(w.right) +
         "] holds " + std::to_string(w.weights.size()) + " weights");
  double sum = 0.0;
  for (std::size_t i = 0; i < w.weights.size(); ++i) {
    if (!(w.weights[i] >= 0.0) || !std::isfinite(w.weights[i]))
      fail("weight at " + std::to_string(w.left + i) + " = " +
           fmt(w.weights[i]) + " is negative or non-finite");
    sum += w.weights[i];
  }
  // `total` is Kahan-compensated while this plain check sum drifts by up
  // to ~n*ulp; allow for that drift when comparing the two.
  const double drift =
      1e-12 + 1e-16 * static_cast<double>(w.weights.size());
  if (std::abs(sum - w.total) > drift * std::max(1.0, w.total))
    fail("weights sum to " + fmt(sum) + " but total claims " + fmt(w.total));
  // The growth loop may stop short of 1 - epsilon only on the underflow
  // floor; treat that as a violation too, it means epsilon was
  // unattainable and the caller's error bound is void.
  if (w.total < 1.0 - epsilon - 1e-15 || w.total > 1.0 + 1e-12)
    fail("total mass " + fmt(w.total) + " outside [1 - " + fmt(epsilon) +
         ", 1]");
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

void Validator::dual_inverse(const Mrm& original, const Mrm& dualized,
                             double tol) const {
  const std::size_t n = original.num_states();
  if (dualized.num_states() != n)
    fail("dual changed the state count: " + std::to_string(n) + " -> " +
         std::to_string(dualized.num_states()));
  for (std::size_t s = 0; s < n; ++s) {
    const double rho = original.reward(s);
    if (original.chain().is_absorbing(s)) {
      if (!dualized.chain().is_absorbing(s))
        fail("absorbing state " + std::to_string(s) +
             " gained transitions in the dual");
      continue;
    }
    if (std::abs(dualized.reward(s) * rho - 1.0) > tol)
      fail("state " + std::to_string(s) + ": dual reward " +
           fmt(dualized.reward(s)) + " is not 1/" + fmt(rho));
    for (const auto& e : original.rates().row(s)) {
      const double back = dualized.rates().at(s, e.col) * rho;
      if (std::abs(back - e.value) > tol * std::max(1.0, std::abs(e.value)))
        fail("rate (" + std::to_string(s) + ", " + std::to_string(e.col) +
             "): dual * rho = " + fmt(back) + " but original is " +
             fmt(e.value));
    }
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
