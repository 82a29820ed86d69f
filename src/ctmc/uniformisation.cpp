#include "ctmc/uniformisation.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "ctmc/foxglynn.hpp"
#include "ctmc/phase_chain.hpp"
#include "matrix/support.hpp"
#include "obs/obs.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace csrl {

namespace {

/// Contract helper: all entries of `v` finite and inside [-tol, 1 + tol].
[[maybe_unused]] bool within_probability_bounds(std::span<const double> v,
                                                double tol) {
  for (double x : v)
    if (!std::isfinite(x) || x < -tol || x > 1.0 + tol) return false;
  return true;
}

/// Frontier density (fraction of states) above which the active-support
/// mode hands over to the dense kernel.
constexpr double kSupportCrossover = 0.25;

/// The active-support mode engages only for non-negative start vectors.
/// Together with the strictly positive stored entries of the uniformised
/// DTMC this rules out signed zeros anywhere in the iteration, which is
/// what makes "skip an off-support term" bit-identical to "add its exact
/// +0.0" in the dense kernel.  (A NaN entry fails v >= 0 and falls back
/// to the dense path too.)
bool eligible_for_active(std::span<const double> start) {
  for (double v : start)
    if (!(v >= 0.0)) return false;
  return true;
}

/// One step's latency sample for the "latency/uniformisation_step"
/// histogram.  Dormant-safe: when recording is off the constructor does
/// not even read the clock, so the series loop's per-step overhead stays
/// one predicted branch.  The destructor fires on break/cutoff exits
/// too, so the last (partial) step is still sampled.
struct StepLatencySample {
  StepLatencySample() : t0(CSRL_OBS_ACTIVE() ? obs::now_ns() : -1) {}
  ~StepLatencySample() {
    if (t0 >= 0)
      CSRL_HIST("latency/uniformisation_step",
                static_cast<double>(obs::now_ns() - t0) * 1e-9);
  }
  StepLatencySample(const StepLatencySample&) = delete;
  StepLatencySample& operator=(const StepLatencySample&) = delete;
  std::int64_t t0;
};

/// Step operator of the series loop over a CSR matrix: the fused dense
/// kernel y = P x, or — while the start vector is non-negative and its
/// support is below the crossover density — the active-support kernel,
/// which visits only the rows that see the frontier and keeps the result
/// bit-identical to the dense path.
class CsrStep {
 public:
  CsrStep(CsrMatrix p, bool active_support)
      : p_(std::move(p)), active_support_(active_support) {}

  /// Readouts sit at every position: results are full vectors.
  std::size_t stride() const { return 1; }

  /// Enter the loop with the start iterate; `scratch` is the other
  /// buffer of the pair.
  void begin(std::span<const double> iterate, std::vector<double>& scratch) {
    const std::size_t n = iterate.size();
    active_ = active_support_ && n > 0 && eligible_for_active(iterate);
    if (active_) {
      std::size_t support = 0;
      for (double v : iterate)
        if (v != 0.0) ++support;
      active_ = static_cast<double>(support) <=
                kSupportCrossover * static_cast<double>(n);
    }
    if (active_) {
      mask_in_ = SupportMask(n);
      mask_in_.reset_to_support(iterate);
      mask_out_ = SupportMask(n);
      // The stale mask of scratch is empty, so scratch must be exactly
      // zero everywhere on entry to the first active step.
      std::fill(scratch.begin(), scratch.end(), 0.0);
    }
    p_.warm_kernel_caches(active_);
  }

  /// y = one fused step from x; returns the convergence verdict.
  bool step(std::span<const double> x, std::vector<double>& y,
            std::span<const FusedAxpy> pendings, double tolerance) {
    if (active_)
      return p_.multiply_active(x, y, mask_in_, mask_out_, pendings,
                                tolerance);
    // One iterate in flight: batched horizons already ride the fused
    // pendings.
    // lint:allow spmm-blocking (single power iterate per step)
    return p_.multiply_fused(x, y, pendings, tolerance);
  }

  /// The iterate buffers were swapped.  The out-mask now names the
  /// support of the new iterate and the in-mask the stale non-zeros of
  /// the new scratch — exactly the entry invariant of the next step.
  /// Hand over to the dense kernels once the frontier stops being
  /// sparse; they overwrite scratch in full, so the masks simply retire.
  /// The handover never changes bits, only traversal order of identical
  /// per-element operations.
  void swapped() {
    if (!active_) return;
    std::swap(mask_in_, mask_out_);
    if (static_cast<double>(mask_in_.size()) >
        kSupportCrossover * static_cast<double>(p_.rows()))
      active_ = false;
  }

 private:
  CsrMatrix p_;
  bool active_support_;
  bool active_ = false;
  SupportMask mask_in_;
  SupportMask mask_out_;
};

/// Step operator of the series loop over a phase chain: the fused phase
/// kernel (matrix/phase_operator.hpp), dense and exact.  Readouts are the
/// phase-0 lanes, so results hold one entry per base state.
class PhaseStep {
 public:
  explicit PhaseStep(PhaseOperator op) : op_(std::move(op)) {}

  std::size_t stride() const { return op_.phases(); }
  void begin(std::span<const double>, std::vector<double>&) {}

  bool step(std::span<const double> x, std::vector<double>& y,
            std::span<const FusedAxpy> pendings, double tolerance) {
    return op_.multiply_phase_fused(x, y, pendings, tolerance);
  }

  void swapped() {}

 private:
  PhaseOperator op_;
};

/// The one series loop behind every transient entry point, single- or
/// multi-horizon (a single horizon is simply a one-window batch; the
/// header's bitwise batch == single guarantee is by construction), over
/// either step operator.  One iterate sequence P^n serves every window;
/// pre-zeroed *results[i] receives exactly the weight-n axpy sequence its
/// horizon needs, read at the positions j * op.stride() of the iterate
/// (every position for a CSR chain, the phase-0 lanes of a phase chain).
///
/// Poisson-weight updates are deferred one step so they ride the next
/// step's memory traversal (the fused kernels): the weight-n axpy on the
/// step-n iterate is carried as a pending into step n + 1.  The window
/// anchors (weight 0 on the start vector) seed the first step's
/// pendings, and whatever is pending when the loop ends is flushed as a
/// plain axpy.  In every case the per-element arithmetic is the
/// identical y[j] += w * x[j * stride] of the unfused loop, so fusion
/// changes no bits.  A steady-state cutoff at step n happens before
/// weight n is pended, so the remaining-mass fold (which starts at n)
/// attributes the window tail exactly as the unfused loop did.
///
/// Each live window rides a step as one scalar FusedAxpy pending;
/// windows that have ended or not yet begun carry none.
template <typename Step>
void accumulate_series(Step& op, std::vector<double>& iterate,
                       std::vector<double>& scratch,
                       const std::vector<PoissonWeights>& windows,
                       const std::vector<std::vector<double>*>& results,
                       const TransientOptions& options) {
  const std::size_t stride = op.stride();
  const std::size_t readouts = iterate.size() / stride;
  const std::size_t num_windows = windows.size();
  std::size_t max_right = 0;
  for (const PoissonWeights& w : windows)
    max_right = std::max(max_right, w.right);

  // Fox-Glynn guarantees at least one weight for every lambda*t >= 0, but
  // a degenerate window (e.g. from a pathologically tiny lambda*t) must
  // not read past the end — guard the anchor access defensively.
  std::vector<FusedAxpy> pendings;
  pendings.reserve(num_windows);
  for (std::size_t i = 0; i < num_windows; ++i)
    if (windows[i].left == 0 && !windows[i].weights.empty())
      // lint:allow hot-alloc (append into capacity reserved to num_windows just above; never reallocates)
      pendings.push_back({windows[i].weights[0], results[i]->data()});

  const double tolerance = options.steady_state_detection
                               ? options.steady_state_tolerance
                               : kNoConvergenceScan;
  op.begin(iterate, scratch);
  bool cutoff = false;
  for (std::size_t n = 1; n <= max_right; ++n) {
    CSRL_COUNT("uniformisation/steps", 1);
    const StepLatencySample step_latency;
    const bool converged = op.step(iterate, scratch, pendings, tolerance);
    pendings.clear();
    // The verdict covers the *full* vector (serial or parallel alike,
    // and the active kernels account for positions entering or leaving
    // the frontier), so convergence decisions are identical at any
    // thread count and in either mode.
    if (converged) {
      // The iterate has converged: every further power of P yields the
      // same vector, so the rest of each still-running window's Poisson
      // mass multiplies it.  A horizon whose window ended before this
      // step already received its full series.
      for (std::size_t i = 0; i < num_windows; ++i) {
        if (windows[i].right < n) continue;
        double remaining = 0.0;
        for (std::size_t m = std::max(n, windows[i].left);
             m <= windows[i].right; ++m)
          remaining += windows[i].weight(m);
        double* out = results[i]->data();
        for (std::size_t j = 0; j < readouts; ++j)
          out[j] += remaining * scratch[j * stride];
      }
      iterate.swap(scratch);
      CSRL_COUNT("uniformisation/steady_state_cutoffs", 1);
      cutoff = true;
      break;
    }
    iterate.swap(scratch);
    op.swapped();
    for (std::size_t i = 0; i < num_windows; ++i)
      if (n >= windows[i].left && n <= windows[i].right)
        // lint:allow hot-alloc (append into capacity reserved to num_windows at setup; at most one pending per window, never reallocates)
        pendings.push_back({windows[i].weight(n), results[i]->data()});
  }
  if (!cutoff)
    for (const FusedAxpy& pending : pendings)
      for (std::size_t j = 0; j < readouts; ++j)
        pending.out[j] += pending.weight * iterate[j * stride];
}

/// Shared wrapper for every entry point: splits degenerate horizons
/// (t == 0, empty or fully absorbing chain) from the series horizons,
/// builds the per-horizon windows, allocates the iteration buffers and
/// runs the series loop.  `start` is the t = 0 iterate (the terminal
/// values, over every lane of a phase chain); results are read at the
/// positions j * stride of the iterate — a degenerate horizon reads
/// `start` itself.  `make_step(lambda)` builds the step operator for the
/// uniformisation rate lambda.
template <typename MakeStep>
std::vector<std::vector<double>> run_batch(std::span<const double> start,
                                           std::size_t stride,
                                           double max_exit_rate,
                                           std::span<const double> times,
                                           const TransientOptions& options,
                                           const char* what,
                                           MakeStep&& make_step) {
  for (double t : times)
    if (!(t >= 0.0) || !std::isfinite(t))
      // lint:allow hot-throw (argument validation at entry, before any series work)
      throw ModelError(std::string(what) + ": times must be finite and >= 0");
  const std::size_t readouts = start.size() / stride;

  std::vector<std::vector<double>> results(times.size());
  std::vector<std::size_t> series;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (times[i] == 0.0 || start.empty() || max_exit_rate == 0.0) {
      results[i].assign(readouts, 0.0);
      for (std::size_t j = 0; j < readouts; ++j)
        results[i][j] = start[j * stride];
    } else {
      // lint:allow hot-alloc (horizon scan at entry, before the series loop)
      series.push_back(i);
    }
  }
  if (series.empty()) return results;

  // Uniformise at the maximum exit rate, positive here: on an
  // all-absorbing chain every horizon is degenerate.
  const double lambda = max_exit_rate;
  auto op = make_step(lambda);

  std::vector<PoissonWeights> windows;
  windows.reserve(series.size());
  std::vector<std::vector<double>*> outs;
  outs.reserve(series.size());
  for (std::size_t i : series) {
    // lint:allow hot-alloc (per-horizon window setup into capacity reserved above, before the series loop)
    windows.push_back(poisson_weights(lambda * times[i], options.epsilon));
    results[i].assign(readouts, 0.0);
    // lint:allow hot-alloc (per-horizon setup into capacity reserved above, before the series loop)
    outs.push_back(&results[i]);
  }

  std::vector<double> iterate(start.begin(), start.end());
  std::vector<double> scratch(start.size());
  accumulate_series(op, iterate, scratch, windows, outs, options);
  return results;
}

/// run_batch over a CSR chain: value backpropagation y = P x.
std::vector<std::vector<double>> run_chain(const Ctmc& chain,
                                           std::span<const double> start,
                                           std::span<const double> times,
                                           const TransientOptions& options,
                                           const char* what) {
  if (start.size() != chain.num_states())
    throw ModelError(std::string(what) + ": vector size mismatch");
  return run_batch(start, 1, chain.max_exit_rate(), times, options, what,
                   [&](double lambda) {
                     return CsrStep(chain.uniformised_dtmc(lambda),
                                    options.active_support);
                   });
}

}  // namespace

std::vector<double> transient_backward(const Ctmc& chain,
                                       std::span<const double> terminal,
                                       double t, const TransientOptions& options) {
  const std::size_t n = chain.num_states();
  if (terminal.size() != n)
    throw ModelError("transient_backward: terminal vector size mismatch");
  if (!(t >= 0.0) || !std::isfinite(t))
    throw ModelError("transient_backward: time must be finite and >= 0");

  if (t == 0.0 || n == 0 || chain.max_exit_rate() == 0.0)
    return std::vector<double>(terminal.begin(), terminal.end());

  CSRL_SPAN("ctmc/transient/backward");

  const double times[1] = {t};
  auto results = run_chain(chain, terminal, times, options,
                           "transient_backward");
  std::vector<double> result = std::move(results[0]);
  // E_s[v(X_t)] is a convex-combination-of-v per step, so whenever the
  // terminal vector is a [0,1] value function the result must be too.
  CSRL_CONTRACT(within_probability_bounds(terminal, 0.0)
                    ? within_probability_bounds(result, 1e-9)
                    : true,
                "transient_backward: [0,1] terminal values produced an "
                "out-of-range expectation at t = " + std::to_string(t));
  return result;
}

std::vector<double> transient_reach(const Ctmc& chain, const StateSet& target,
                                    double t, const TransientOptions& options) {
  if (target.size() != chain.num_states())
    throw ModelError("transient_reach: target universe size mismatch");
  return transient_backward(chain, target.indicator(), t, options);
}

std::vector<std::vector<double>> transient_reach_batch(
    const Ctmc& chain, const StateSet& target, std::span<const double> times,
    const TransientOptions& options) {
  if (target.size() != chain.num_states())
    throw ModelError("transient_reach_batch: target universe size mismatch");
  CSRL_SPAN("ctmc/transient/backward_batch");
  auto results = run_chain(chain, target.indicator(), times, options,
                           "transient_reach_batch");
  CSRL_CONTRACT(
      [&] {
        for (const auto& result : results)
          if (!within_probability_bounds(result, 1e-9)) return false;
        return true;
      }(),
      "transient_reach_batch: an occupancy probability left [0, 1]");
  return results;
}

std::vector<std::vector<double>> transient_reach_batch(
    const PhaseChain& chain, const StateSet& target,
    std::span<const double> times, const TransientOptions& options) {
  const std::size_t n = chain.num_states();
  const std::size_t k = chain.phases();
  if (target.size() != n)
    throw ModelError("transient_reach_batch: target universe size mismatch");
  CSRL_SPAN("ctmc/transient/backward_batch");
  // Terminal values: every phase of a target state (the sink, never a
  // target, is not stored).
  std::vector<double> terminal(n * k, 0.0);
  for (std::size_t s : target.members())
    std::fill_n(terminal.begin() + static_cast<std::ptrdiff_t>(s * k), k, 1.0);
  auto results = run_batch(terminal, k, chain.max_exit_rate(), times, options,
                           "transient_reach_batch", [&](double lambda) {
                             return PhaseStep(chain.uniformised(lambda));
                           });
  CSRL_CONTRACT(
      [&] {
        for (const auto& result : results)
          if (!within_probability_bounds(result, 1e-9)) return false;
        return true;
      }(),
      "transient_reach_batch: an occupancy probability left [0, 1]");
  return results;
}

}  // namespace csrl
