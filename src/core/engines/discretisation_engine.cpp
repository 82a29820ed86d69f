#include "core/engines/discretisation_engine.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "matrix/simd.hpp"
#include "matrix/spmm.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/workspace.hpp"

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

/// State-sweep grain sized so each chunk touches ~this many F cells.
std::size_t sweep_grain(std::size_t width) {
  constexpr std::size_t kCellsPerChunk = 1 << 13;
  return std::max<std::size_t>(1, kCellsPerChunk / std::max<std::size_t>(width, 1));
}

}  // namespace

DiscretisationEngine::DiscretisationEngine(double step,
                                           std::shared_ptr<ThreadPool> pool,
                                           std::size_t rhs_block)
    : JointDistributionEngine(std::move(pool)),
      step_(step),
      rhs_block_(resolve_rhs_block(rhs_block)) {
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

std::vector<JointDistribution> DiscretisationEngine::joint_distribution_grid(
    const Mrm& model, std::span<const double> times,
    std::span<const double> rewards) const {
  std::vector<JointDistribution> grid = std::move(
      joint_distribution_grid_block({&model, 1}, times, rewards, nullptr)
          .front());
  validate_grid(model, times, rewards, grid, monotone_slack(model, times));
  return grid;
}

std::vector<std::vector<JointDistribution>>
DiscretisationEngine::joint_distribution_grid_block(
    std::span<const Mrm> models, std::span<const double> times,
    std::span<const double> rewards, Workspace* workspace) const {
  const std::size_t lanes = models.size();
  if (lanes == 0 || lanes > kMaxRhsBlock)
    throw ModelError(
        "DiscretisationEngine: lane count must lie in [1, kMaxRhsBlock]");
  const Mrm& shape = models.front();
  const std::size_t num_rewards = rewards.size();
  std::vector<std::vector<JointDistribution>> result(lanes);

  // Triviality is decided by (t, r) and the shared rates/rewards alone
  // (engine.cpp), so the live set is lane-independent; only the trivial
  // *results* differ per lane (each consults its own initial
  // distribution).
  std::vector<std::size_t> live_slots;
  for (std::size_t b = 0; b < lanes; ++b)
    live_slots = peel_trivial_cells(models[b], times, rewards, result[b]);
  struct Live {
    std::size_t slot;
    std::size_t total_steps;
    std::size_t reward_cells;
  };
  std::vector<Live> live;
  const double d = step_;
  for (std::size_t slot : live_slots) {
    const double t = times[slot / num_rewards];
    const double r = rewards[slot % num_rewards];
    live.push_back(
        {slot, as_natural(t / d, 1e-6, "t/d"), as_natural(r / d, 1e-6, "r/d")});
    if (live.back().total_steps == 0)
      throw ModelError("DiscretisationEngine: t must be at least one step d");
  }
  if (live.empty()) return result;

  CSRL_SPAN("p3/discretisation/joint_distribution_grid");
  const std::size_t n = shape.num_states();
  std::vector<std::size_t> rho(n);
  for (std::size_t s = 0; s < n; ++s)
    rho[s] = as_natural(shape.reward(s), 1e-9, "every reward rate");
  for (std::size_t s = 0; s < n; ++s)
    if (shape.chain().exit_rate(s) * d >= 1.0)
      throw ModelError(
          "DiscretisationEngine: step too coarse, E(s)*d must stay below 1 "
          "(state " + std::to_string(s) + ")");

  std::size_t max_steps = 0;
  std::size_t max_cells = 0;
  for (const Live& pt : live) {
    max_steps = std::max(max_steps, pt.total_steps);
    max_cells = std::max(max_cells, pt.reward_cells);
  }

  // One lane-interleaved pair of F arrays: lane b's cell (s, k) lives at
  // (s * width + k) * lanes + b, so the lane loops below are contiguous
  // (and SIMD-safe: lanes never mix, each performs its own single-start
  // arithmetic in the same order).  Reward indices above the widest bound
  // can never come back under it (rewards are non-negative), so those
  // columns are not tracked at all.
  const std::size_t width = max_cells + 1;
  CSRL_GAUGE("p3/discretisation/time_steps", static_cast<double>(max_steps));
  CSRL_GAUGE("p3/discretisation/reward_cells", static_cast<double>(width));
  Workspace::LoopGuard guard(workspace);
  Workspace::Lease current_lease(workspace, n * width * lanes);
  Workspace::Lease next_lease(workspace, n * width * lanes);
  std::vector<double>& current = current_lease.get();
  std::vector<double>& next = next_lease.get();
  current.assign(n * width * lanes, 0.0);
  next.assign(n * width * lanes, 0.0);

  // F^1: one step of duration d from each lane's initial distribution;
  // state s0 has earned reward index rho(s0).
  for (std::size_t b = 0; b < lanes; ++b) {
    const std::vector<double>& initial = models[b].initial_distribution();
    for (std::size_t s = 0; s < n; ++s) {
      const double mass = initial[s];
      if (mass == 0.0) continue;
      if (rho[s] <= max_cells)
        current[(s * width + rho[s]) * lanes + b] += mass / d;
    }
  }

  // Incoming transitions drive the second summand; iterate over the
  // transposed rate matrix so each new cell gathers its donors.  With
  // impulse rewards (the Section-6 extension) a firing additionally
  // displaces the reward index by iota/d, which must therefore sit on the
  // grid.
  const CsrMatrix incoming = shape.rates().transposed();
  struct Donor {
    std::size_t state;
    double weight;      // R(donor, s) * d
    std::size_t shift;  // rho(donor) + iota(donor, s)/d
  };
  std::vector<std::vector<Donor>> donors(n);
  for (std::size_t s = 0; s < n; ++s) {
    for (const auto& e : incoming.row(s)) {
      std::size_t shift = rho[e.col];
      if (shape.has_impulse_rewards()) {
        const double iota = shape.impulse(e.col, s);
        if (iota > 0.0)
          shift += as_natural(iota / d, 1e-6, "every impulse divided by d");
      }
      donors[s].push_back({e.col, e.value * d, shift});
    }
  }

  ThreadPool& workers = pool();
  const std::size_t grain = sweep_grain(width * lanes);

  const auto harvest = [&](std::size_t steps_done) {
    for (const Live& pt : live) {
      if (pt.total_steps != steps_done) continue;
      JointDistribution* outs[kMaxRhsBlock];
      for (std::size_t b = 0; b < lanes; ++b) {
        outs[b] = &result[b][pt.slot];
        outs[b]->per_state.assign(n, 0.0);
        outs[b]->steps = pt.total_steps;
      }
      workers.parallel_for(0, n, grain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          double acc[kMaxRhsBlock] = {};
          for (std::size_t k = 0; k <= pt.reward_cells; ++k) {
            const double* c = current.data() + (s * width + k) * lanes;
            CSRL_PRAGMA_SIMD
            for (std::size_t b = 0; b < lanes; ++b) acc[b] += c[b];
          }
          for (std::size_t b = 0; b < lanes; ++b)
            outs[b]->per_state[s] = acc[b] * d;
        }
      });
    }
  };

  // The sweep gathers into next[s ..] from current[] only, so the states
  // partition into independent chunks with unchanged per-state arithmetic:
  // results are bit-identical at any thread count.  Each chunk clears its
  // own slice of next to keep the gather loop free of branches.
  harvest(1);
  for (std::size_t j = 1; j < max_steps; ++j) {
    CSRL_COUNT("p3/discretisation/sweeps", 1);
    CSRL_HIST_SCOPE("latency/p3_sweep");
    workers.parallel_for(0, n, grain, [&](std::size_t lo, std::size_t hi) {
      std::fill(
          next.begin() + static_cast<std::ptrdiff_t>(lo * width * lanes),
          next.begin() + static_cast<std::ptrdiff_t>(hi * width * lanes), 0.0);
      for (std::size_t s = lo; s < hi; ++s) {
        const double stay = 1.0 - shape.chain().exit_rate(s) * d;
        const std::size_t shift = rho[s];
        for (std::size_t k = shift; k <= max_cells; ++k) {
          const double* src = current.data() + (s * width + (k - shift)) * lanes;
          double* dst = next.data() + (s * width + k) * lanes;
          CSRL_PRAGMA_SIMD
          for (std::size_t b = 0; b < lanes; ++b) dst[b] = src[b] * stay;
        }
        for (const Donor& donor : donors[s]) {
          for (std::size_t k = donor.shift; k <= max_cells; ++k) {
            const double* src =
                current.data() +
                (donor.state * width + (k - donor.shift)) * lanes;
            double* dst = next.data() + (s * width + k) * lanes;
            CSRL_PRAGMA_SIMD
            for (std::size_t b = 0; b < lanes; ++b)
              dst[b] += src[b] * donor.weight;
          }
        }
      }
    });
    current.swap(next);
    harvest(j + 1);
  }
  CSRL_COUNT("p3/discretisation/allocs_in_loop", guard.heap_allocations());
  return result;
}

std::vector<std::vector<double>>
DiscretisationEngine::joint_probability_all_starts_grid(
    const Mrm& model, std::span<const double> times,
    std::span<const double> rewards, const StateSet& target) const {
  const std::size_t n = model.num_states();
  if (target.size() != n)
    throw ModelError("joint_probability_all_starts: universe mismatch");
  CSRL_SPAN("p3/discretisation/all_starts_grid");
  std::vector<std::vector<double>> grid(times.size() * rewards.size(),
                                        std::vector<double>(n, 0.0));
  // Each group of up to rhs_block_ start states shares one lane-
  // interleaved sweep (joint_distribution_grid_block), bitwise identical
  // per lane to a one-start run; one arena serves every group, so only the
  // first one allocates the sweep arrays.
  Workspace start_workspace;
  std::vector<Mrm> group;
  group.reserve(std::min(rhs_block_, n));
  for (std::size_t s0 = 0; s0 < n; s0 += rhs_block_) {
    const std::size_t lanes = std::min(rhs_block_, n - s0);
    group.clear();
    for (std::size_t b = 0; b < lanes; ++b) {
      Mrm from_s(Ctmc(model.rates()), model.rewards(), model.labelling(),
                 s0 + b);
      if (model.has_impulse_rewards())
        from_s = from_s.with_impulses(model.impulse_rewards());
      group.push_back(std::move(from_s));
    }
    const std::vector<std::vector<JointDistribution>> per_lane =
        joint_distribution_grid_block(group, times, rewards, &start_workspace);
    for (std::size_t b = 0; b < lanes; ++b)
      for (std::size_t g = 0; g < grid.size(); ++g)
        grid[g][s0 + b] = per_lane[b][g].probability_in(target);
  }
  validate_grid(model, times, rewards, target, grid,
                monotone_slack(model, times));
  return grid;
}

double DiscretisationEngine::interval_until(const Mrm& model,
                                            const StateSet& phi,
                                            const StateSet& psi, Interval time,
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
  std::vector<std::size_t> rho(n);
  for (std::size_t s = 0; s < n; ++s)
    rho[s] = as_natural(model.reward(s), 1e-9, "every reward rate");
  const std::size_t t_hi = as_natural(time.hi / d, 1e-6, "t2/d");
  const std::size_t t_lo = as_natural(time.lo / d, 1e-6, "t1/d");
  const std::size_t r_hi = as_natural(reward.hi / d, 1e-6, "r2/d");
  const std::size_t r_lo = as_natural(reward.lo / d, 1e-6, "r1/d");
  for (std::size_t s = 0; s < n; ++s)
    if (model.chain().exit_rate(s) * d >= 1.0)
      throw ModelError(
          "interval_until: step too coarse, E(s)*d must stay below 1");

  // Mass classification helpers.  Both grid coordinates only grow along a
  // path, so "past either window" means the mass can never qualify.
  const auto in_windows = [&](std::size_t j, std::size_t k) {
    return j >= t_lo && j <= t_hi && k >= r_lo && k <= r_hi;
  };

  const std::size_t width = r_hi + 1;
  std::vector<double> current(n * width, 0.0);
  std::vector<double> next(n * width, 0.0);
  const auto cell = [width](std::vector<double>& f, std::size_t s,
                            std::size_t k) -> double& {
    return f[s * width + k];
  };

  double success = 0.0;  // accumulated probability mass (not density)

  // Harvest pass at grid instant j: satisfied mass leaves the grid, mass
  // stuck in states that cannot carry the path onward is dropped (fail).
  const auto classify = [&](std::vector<double>& f, std::size_t j) {
    for (std::size_t s = 0; s < n; ++s) {
      const bool is_psi = psi.contains(s);
      const bool is_phi = phi.contains(s);
      for (std::size_t k = 0; k <= r_hi; ++k) {
        double& mass = cell(f, s, k);
        if (mass == 0.0) continue;
        if (is_psi && in_windows(j, k)) {
          success += mass * d;
          mass = 0.0;
        } else if (!is_phi) {
          // Neither satisfied here nor able to continue: the paths die.
          mass = 0.0;
        }
      }
    }
  };

  // Grid instant 0: the initial distribution as densities (mass / d).
  for (std::size_t s = 0; s < n; ++s) {
    const double mass = model.initial_distribution()[s];
    if (mass > 0.0) cell(current, s, 0) += mass / d;
  }
  classify(current, 0);

  // Propagation parallelises exactly like joint_distribution_grid_block's
  // sweep (each
  // state's slice of `next` has one writer).  The classify pass stays
  // serial: it folds `success` in a fixed (s, k) order, and keeping that
  // fold sequential preserves bit-identical answers at every thread count.
  const CsrMatrix incoming = model.rates().transposed();
  ThreadPool& workers = pool();
  const std::size_t grain = sweep_grain(width);
  for (std::size_t j = 1; j <= t_hi; ++j) {
    CSRL_COUNT("p3/discretisation/sweeps", 1);
    CSRL_HIST_SCOPE("latency/p3_sweep");
    workers.parallel_for(0, n, grain, [&](std::size_t lo, std::size_t hi) {
      std::fill(next.begin() + static_cast<std::ptrdiff_t>(lo * width),
                next.begin() + static_cast<std::ptrdiff_t>(hi * width), 0.0);
      for (std::size_t s = lo; s < hi; ++s) {
        const double stay = 1.0 - model.chain().exit_rate(s) * d;
        const std::size_t shift = rho[s];
        for (std::size_t k = shift; k <= r_hi; ++k)
          cell(next, s, k) = cell(current, s, k - shift) * stay;
        for (const auto& e : incoming.row(s)) {
          const std::size_t donor = e.col;
          std::size_t donor_shift = rho[donor];
          if (model.has_impulse_rewards()) {
            const double iota = model.impulse(donor, s);
            if (iota > 0.0)
              donor_shift +=
                  as_natural(iota / d, 1e-6, "every impulse divided by d");
          }
          const double weight = e.value * d;
          for (std::size_t k = donor_shift; k <= r_hi; ++k)
            cell(next, s, k) += cell(current, donor, k - donor_shift) * weight;
        }
      }
    });
    current.swap(next);
    classify(current, j);
  }
  return std::min(success, 1.0);
}

}  // namespace csrl
