#include "core/engines/discretisation_engine.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "ctmc/uniformisation.hpp"
#include "matrix/phase_operator.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace csrl {

namespace {

/// Closest integer to x if it is within `tol`, throws otherwise.
std::size_t as_natural(double x, double tol, const char* what) {
  const double rounded = std::round(x);
  if (!(rounded >= 0.0) || std::abs(x - rounded) > tol)
    throw ModelError(std::string("DiscretisationEngine: ") + what +
                     " must be a non-negative integer multiple (got " +
                     std::to_string(x) + "); rescale rewards/step first");
  return static_cast<std::size_t>(rounded);
}

/// The reward rates as grid shifts rho(s), after checking the scheme's
/// preconditions: natural rates and E(s) d < 1.
std::vector<std::size_t> reward_shifts(const Mrm& model, double d) {
  std::vector<std::size_t> rho(model.num_states());
  for (std::size_t s = 0; s < rho.size(); ++s) {
    rho[s] = as_natural(model.reward(s), 1e-9, "every reward rate");
    if (model.chain().exit_rate(s) * d >= 1.0)
      throw ModelError(
          "DiscretisationEngine: step too coarse, E(s)*d must stay below 1 "
          "(state " + std::to_string(s) + ")");
  }
  return rho;
}

/// One step of the adjoint recursions as a lane operator over the
/// reversed budget axis, lane i = width - 1 - b:
///
///   next(s, b) = (1 - E(s) d) cur(s, b - rho(s))
///              + sum_{s'} R(s, s') d cur(s', b - rho(s) - iota(s, s')/d),
///
/// with negative budgets contributing zero.  Reading budget b - shift is
/// reading lane i + shift, so each term is one band over lanes
/// [0, width - shift), and a term whose shift reaches the width reads
/// nothing and is left out.  A state's bands are the self term, then its
/// arcs in CSR column order: the operator sums them in that order, so
/// every cell of next adds the same products in the same order at any
/// thread count.  With impulse rewards (the Section-6 extension) a firing
/// additionally displaces the budget by iota/d, which must therefore sit
/// on the grid.
PhaseOperator recursion_operator(const Mrm& model,
                                 std::span<const std::size_t> rho, double d,
                                 std::size_t width) {
  std::vector<std::size_t> row_ptr{0};
  row_ptr.reserve(rho.size() + 1);
  std::vector<PhaseBand> bands;
  bands.reserve(rho.size() + model.rates().nnz());
  const auto add = [&](std::size_t source, std::size_t shift, double coef) {
    if (shift < width) bands.push_back({source, shift, 0, width - shift, coef});
  };
  for (std::size_t s = 0; s < rho.size(); ++s) {
    add(s, rho[s], 1.0 - model.chain().exit_rate(s) * d);
    for (const auto& e : model.rates().row(s)) {
      std::size_t shift = rho[s];
      if (model.has_impulse_rewards()) {
        const double iota = model.impulse(s, e.col);
        if (iota > 0.0)
          shift += as_natural(iota / d, 1e-6, "every impulse divided by d");
      }
      add(e.col, shift, e.value * d);
    }
    row_ptr.push_back(bands.size());
  }
  return PhaseOperator(width, std::move(row_ptr), std::move(bands));
}

/// next = step(cur): one sweep of the recursion.
void sweep(const PhaseOperator& step, std::span<const double> cur,
           std::span<double> next) {
  CSRL_COUNT("p3/discretisation/sweeps", 1);
  CSRL_HIST_SCOPE("latency/p3_sweep");
  (void)step.multiply_phase_fused(cur, next, {}, kNoConvergenceScan);
}

/// A live lattice cell on the d-grid: J = t/d steps, K = r/d reward cells.
struct GridCell {
  std::size_t slot;
  std::size_t steps;
  std::size_t cells;
};

std::vector<GridCell> grid_cells(std::span<const std::size_t> slots,
                                 std::span<const double> times,
                                 std::span<const double> rewards, double d) {
  std::vector<GridCell> cells;
  for (std::size_t slot : slots) {
    cells.push_back({slot,
                     as_natural(times[slot / rewards.size()] / d, 1e-6, "t/d"),
                     as_natural(rewards[slot % rewards.size()] / d, 1e-6,
                                "r/d")});
    if (cells.back().steps == 0)
      throw ModelError("DiscretisationEngine: t must be at least one step d");
  }
  return cells;
}

/// The longest horizon and the widest reward index of `cells`, also
/// recorded as gauges.
std::pair<std::size_t, std::size_t> grid_extent(
    std::span<const GridCell> cells) {
  std::size_t max_steps = 0;
  std::size_t max_cells = 0;
  for (const GridCell& cell : cells) {
    max_steps = std::max(max_steps, cell.steps);
    max_cells = std::max(max_cells, cell.cells);
  }
  CSRL_GAUGE("p3/discretisation/time_steps", static_cast<double>(max_steps));
  CSRL_GAUGE("p3/discretisation/reward_cells",
             static_cast<double>(max_cells + 1));
  return {max_steps, max_cells};
}

}  // namespace

DiscretisationEngine::DiscretisationEngine(double step) : step_(step) {
  if (!(step > 0.0) || !std::isfinite(step))
    throw ModelError("DiscretisationEngine: step must be positive and finite");
}

std::string DiscretisationEngine::name() const {
  return "discretisation-d=" + std::to_string(step_);
}

double DiscretisationEngine::monotone_slack(
    const Mrm& model, std::span<const double> times) const {
  // The Tijms-Veldman error is O(d) with a model-dependent constant; the
  // slack over-approximates it for the reward-monotonicity checks (halved
  // bounds that fall off the d-grid make the paranoid recompute throw
  // ModelError, which validate_joint_grid treats as "check skipped").
  double t_max = 0.0;
  for (double t : times) t_max = std::max(t_max, t);
  return 2.0 * step_ * (1.0 + model.chain().max_exit_rate()) *
         std::max(1.0, t_max);
}

std::vector<std::vector<double>>
DiscretisationEngine::joint_probability_all_starts_grid(
    const Mrm& model, std::span<const double> times,
    std::span<const double> rewards, const StateSet& target) const {
  const std::size_t n = model.num_states();
  if (target.size() != n)
    throw ModelError("joint_probability_all_starts: universe mismatch");
  const double d = step_;
  std::vector<std::vector<double>> grid;
  const std::vector<GridCell> live = grid_cells(
      peel_trivial_cells(model, times, rewards, target, TransientOptions{},
                         grid),
      times, rewards, d);
  if (!live.empty()) {
    CSRL_SPAN("p3/discretisation/all_starts_grid");
    const std::vector<std::size_t> rho = reward_shifts(model, d);
    const auto [max_steps, max_budget] = grid_extent(live);

    // H[s * width + width - 1 - b], b the remaining reward budget in
    // cells (the reversed axis of recursion_operator).
    const std::size_t width = max_budget + 1;
    std::vector<double> current(n * width);
    std::vector<double> next(n * width);
    for (std::size_t s = 0; s < n; ++s)
      std::fill_n(current.begin() + static_cast<std::ptrdiff_t>(s * width),
                  width, target.contains(s) ? 1.0 : 0.0);

    const PhaseOperator step = recursion_operator(model, rho, d, width);
    const auto read_out = [&](std::size_t steps_done) {
      for (const GridCell& cell : live) {
        if (cell.steps != steps_done + 1) continue;
        std::vector<double>& out = grid[cell.slot];
        out.assign(n, 0.0);
        for (std::size_t s = 0; s < n; ++s)
          if (rho[s] <= cell.cells)
            out[s] = current[s * width + width - 1 - (cell.cells - rho[s])];
      }
    };
    read_out(0);
    for (std::size_t m = 1; m < max_steps; ++m) {
      sweep(step, current, next);
      current.swap(next);
      read_out(m);
    }
  }
  validate_grid(model, times, rewards, target, grid,
                monotone_slack(model, times));
  return grid;
}

std::vector<double> DiscretisationEngine::interval_until_all_starts(
    const Mrm& model, const StateSet& phi, const StateSet& psi, Interval time,
    Interval reward) const {
  const std::size_t n = model.num_states();
  if (phi.size() != n || psi.size() != n)
    throw ModelError("interval_until: universe size mismatch");
  if (!time.has_upper_bound() || !reward.has_upper_bound())
    throw ModelError(
        "interval_until: both upper bounds must be finite (unbounded "
        "dimensions are the P0/P1/P2 pipelines' job)");

  CSRL_SPAN("p3/discretisation/interval_until");

  const double d = step_;
  const std::vector<std::size_t> rho = reward_shifts(model, d);
  const std::size_t t_hi = as_natural(time.hi / d, 1e-6, "t2/d");
  const std::size_t t_lo = as_natural(time.lo / d, 1e-6, "t1/d");
  const std::size_t r_hi = as_natural(reward.hi / d, 1e-6, "r2/d");
  const std::size_t r_lo = as_natural(reward.lo / d, 1e-6, "r1/d");

  // V[s * width + width - 1 - b]: the probability of eventually
  // qualifying from state s at the current grid instant with remaining
  // budget b = r2/d - k (the reversed axis of recursion_operator).
  // Beyond t2 nothing qualifies, so the run starts from V = 0.
  const std::size_t width = r_hi + 1;
  std::vector<double> current(n * width, 0.0);
  std::vector<double> next(n * width);

  // The harvest/fail classification at grid instant j is a pointwise
  // map: a Psi-state inside both windows (k >= r1 is b <= r2/d - r1/d)
  // qualifies, any other !Phi-state is dead.  It touches the Psi and
  // !Phi states only, so it runs serially between the sweeps.
  const auto classify = [&](std::size_t j) {
    const bool time_open = j >= t_lo;
    for (std::size_t s = 0; s < n; ++s) {
      double* v = current.data() + s * width;
      std::size_t harvested = 0;  // budgets [0, harvested) qualify
      if (psi.contains(s) && time_open && r_lo <= r_hi)
        harvested = r_hi - r_lo + 1;
      std::fill(v + width - harvested, v + width, 1.0);
      if (!phi.contains(s)) std::fill(v, v + width - harvested, 0.0);
    }
  };

  const PhaseOperator step = recursion_operator(model, rho, d, width);
  classify(t_hi);
  for (std::size_t j = t_hi; j-- > 0;) {
    sweep(step, current, next);
    current.swap(next);
    classify(j);
  }

  // Reading at budget r2/d (lane 0) is reading absolute reward 0.
  std::vector<double> result(n);
  for (std::size_t s = 0; s < n; ++s)
    result[s] = std::min(current[s * width], 1.0);
  return result;
}

}  // namespace csrl
