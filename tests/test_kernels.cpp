// The active-support SpMV hot path (matrix/support.hpp + the frontier
// mode of backward uniformisation): differential tests against the dense
// fused kernel and the convergence predicate every step kernel returns
// (multiply_fused, multiply_active, multiply_phase_fused).
//
// Labelled `tsan` in tests/CMakeLists.txt: the differential sweep and the
// predicate tests run every kernel at 1 and 4 threads, so under
// -DCSRL_SANITIZE=thread they double as race-detection workloads for the
// frontier path and the row chunks' shared verdict flag.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "ctmc/uniformisation.hpp"
#include "matrix/csr.hpp"
#include "matrix/phase_operator.hpp"
#include "models/synthetic.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/state_set.hpp"
#include "util/thread_pool.hpp"

namespace csrl {
namespace {

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what << ": active-support result differs from dense";
}

StateSet last_states(const Mrm& model, std::size_t count) {
  StateSet target(model.num_states());
  for (std::size_t s = model.num_states() - count; s < model.num_states(); ++s)
    target.insert(s);
  return target;
}

TransientOptions dense_options() {
  TransientOptions options;
  options.active_support = false;
  return options;
}

TransientOptions active_options() {
  TransientOptions options;
  options.active_support = true;
  return options;
}

// -- Differential: the active path reproduces the dense path bit for bit --

TEST(ActiveSupport, BitwiseIdenticalToDenseAcrossSeedsAndThreads) {
  const std::vector<double> times{0.4, 1.1};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Mrm model = random_mrm(seed, 96, 0.03);
    const Ctmc& chain = model.chain();
    const StateSet target = last_states(model, 5);
    // A single target state: the frontier the active path walks from.
    StateSet point(model.num_states());
    point.insert(model.initial_state());
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ThreadPool::set_global_threads(threads);
      for (double t : times) {
        expect_bitwise_equal(
            transient_reach(chain, point, t, dense_options()),
            transient_reach(chain, point, t, active_options()),
            "backward from a point");
        expect_bitwise_equal(
            transient_reach(chain, target, t, dense_options()),
            transient_reach(chain, target, t, active_options()), "backward");
      }
      const auto dense_bwd =
          transient_reach_batch(chain, target, times, dense_options());
      const auto active_bwd =
          transient_reach_batch(chain, target, times, active_options());
      ASSERT_EQ(dense_bwd.size(), active_bwd.size());
      for (std::size_t i = 0; i < times.size(); ++i)
        expect_bitwise_equal(dense_bwd[i], active_bwd[i], "backward batch");
    }
    ThreadPool::set_global_threads(1);
  }
}

// -- Steady-state cutoff: single and batched runs stay bit-identical ------

TEST(ActiveSupport, SteadyStateCutoffMatchesBetweenSingleAndBatch) {
  // A long horizon on a small well-mixed chain triggers the cutoff; the
  // batched run must fold the remaining Poisson mass exactly as the
  // single-horizon run does.
  const Mrm model = birth_death_mrm(16, 2.0, 3.0);
  const Ctmc& chain = model.chain();
  StateSet target(model.num_states());
  target.insert(0);
  const std::vector<double> times{50.0, 200.0};

#ifndef CSRL_OBS_DISABLED
  obs::ScopedRecording recording;
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
#endif
  const auto batch =
      transient_reach_batch(chain, target, times, active_options());
#ifndef CSRL_OBS_DISABLED
  EXPECT_GT(obs::metrics_delta(before, obs::snapshot_metrics())
                .counter("uniformisation/steady_state_cutoffs"),
            0u)
      << "horizons too short to exercise the steady-state epilogue";
#endif
  for (std::size_t i = 0; i < times.size(); ++i)
    expect_bitwise_equal(
        transient_reach(chain, target, times[i], active_options()), batch[i],
        "steady-state epilogue single vs batch");
}

// -- Convergence predicate: early-exit verdicts equal a full scan ---------

/// One fused step from x into y (and the pending sum into acc) at
/// `tolerance`; returns the kernel's verdict.
using StepKernel =
    std::function<bool(const std::vector<double>& x, std::vector<double>& y,
                       std::vector<double>& acc, double tolerance)>;

/// Operands whose first and last states are isolated (no stored entry or
/// band in their row, none reading them): y is 0 there and x there feeds
/// no other entry, so a value planted in x at either end moves by exactly
/// its own magnitude and changes nothing else.
struct PredicateFixture {
  static constexpr std::size_t kStates = 4000;  // nnz above the parallel cut
  static constexpr std::size_t kPhaseStates = 64;
  static constexpr std::size_t kLanes = 64;  // lane terms above the cut

  CsrMatrix p;
  std::vector<double> x = std::vector<double>(kStates, 0.0);
  PhaseOperator op;
  std::vector<double> lanes = std::vector<double>(kPhaseStates * kLanes, 0.0);

  PredicateFixture() {
    SplitMix64 rng(11);
    CsrBuilder builder(kStates, kStates);
    for (std::size_t r = 1; r + 1 < kStates; ++r)
      for (int e = 0; e < 6; ++e)
        builder.add(r, 1 + rng.next_below(kStates - 2),
                    rng.next_double(0.05, 0.2));
    p = builder.build();
    // A sparse non-negative iterate, as the active kernels require.
    for (int i = 0; i < 200; ++i)
      x[1 + rng.next_below(kStates - 2)] = rng.next_double(0.1, 1.0);

    std::vector<std::size_t> row_ptr{0};
    std::vector<PhaseBand> bands;
    for (std::size_t s = 0; s < kPhaseStates; ++s) {
      if (s > 0 && s + 1 < kPhaseStates)
        for (int e = 0; e < 6; ++e) {
          PhaseBand band;
          band.source = 1 + rng.next_below(kPhaseStates - 2);
          band.shift = rng.next_below(4);
          band.lo = rng.next_below(4);
          band.hi = kLanes - band.shift;
          band.coef = rng.next_double(0.05, 0.2);
          bands.push_back(band);
        }
      row_ptr.push_back(bands.size());
    }
    op = PhaseOperator(kLanes, std::move(row_ptr), std::move(bands));
    for (std::size_t i = kLanes; i < (kPhaseStates - 1) * kLanes; ++i)
      lanes[i] = rng.next_double(0.1, 1.0);
  }

  StepKernel csr(bool active) const {
    return [this, active](const std::vector<double>& in_x,
                          std::vector<double>& y, std::vector<double>& acc,
                          double tolerance) {
      const FusedAxpy pending[1] = {{0.5, acc.data()}};
      if (!active) return p.multiply_fused(in_x, y, pending, tolerance);
      // y is all zero, so the stale out-mask is empty.
      SupportMask in(kStates);
      SupportMask out(kStates);
      in.reset_to_support(in_x);
      return p.multiply_active(in_x, y, in, out, pending, tolerance);
    };
  }

  StepKernel phase() const {
    return [this](const std::vector<double>& in_x, std::vector<double>& y,
                  std::vector<double>& acc, double tolerance) {
      const FusedAxpy pending[1] = {{0.5, acc.data()}};
      return op.multiply_phase_fused(in_x, y, pending, tolerance);
    };
  }
};

/// The reference verdict: a full scan of |y - x| <= tolerance, which a
/// NaN fails.
bool full_scan_converged(const std::vector<double>& x,
                         const std::vector<double>& y, double tolerance) {
  bool converged = tolerance >= 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    if (!(std::abs(y[i] - x[i]) <= tolerance)) converged = false;
  return converged;
}

/// Runs `kernel` from x at `tolerance`: its verdict must equal both the
/// full scan and `expected`, and y and the pending sum must be bitwise
/// those of the run that scans nothing.
void expect_verdict(const StepKernel& kernel, const std::vector<double>& x,
                    std::size_t readouts, double tolerance, bool expected,
                    const std::string& what) {
  std::vector<double> y_plain(x.size(), 0.0);
  std::vector<double> acc_plain(readouts, 0.0);
  EXPECT_FALSE(kernel(x, y_plain, acc_plain, kNoConvergenceScan)) << what;
  std::vector<double> y(x.size(), 0.0);
  std::vector<double> acc(readouts, 0.0);
  const bool converged = kernel(x, y, acc, tolerance);
  EXPECT_EQ(converged, full_scan_converged(x, y_plain, tolerance)) << what;
  EXPECT_EQ(converged, expected) << what;
  EXPECT_EQ(std::memcmp(y.data(), y_plain.data(), y.size() * sizeof(double)),
            0)
      << what << ": the scan changed y";
  EXPECT_EQ(std::memcmp(acc.data(), acc_plain.data(),
                        acc.size() * sizeof(double)),
            0)
      << what << ": the scan changed the pending sum";
}

/// Every entry below the tolerance, then one planted entry at each of
/// `ends` exactly at the tolerance and one ulp above it.
void expect_verdicts(const StepKernel& kernel, const std::vector<double>& x,
                     std::size_t readouts, std::vector<std::size_t> ends,
                     const std::string& name) {
  constexpr double kPlanted = 100.0;  // far above every other |y - x|
  expect_verdict(kernel, x, readouts, kPlanted, true, name + ": all below");
  expect_verdict(kernel, x, readouts, -1.0, false,
                 name + ": negative tolerance");
  for (std::size_t at : ends) {
    std::vector<double> planted = x;
    planted[at] = kPlanted;
    const std::string where = name + ", entry " + std::to_string(at);
    expect_verdict(kernel, planted, readouts, kPlanted, true,
                   where + " exactly at the tolerance");
    expect_verdict(kernel, planted, readouts, std::nextafter(kPlanted, 0.0),
                   false, where + " just above the tolerance");
  }
}

TEST(ConvergencePredicate, VerdictMatchesFullScanForEveryKernel) {
  const PredicateFixture f;
  const std::size_t n = PredicateFixture::kStates;
  const std::size_t states = PredicateFixture::kPhaseStates;
  const std::size_t k = PredicateFixture::kLanes;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::set_global_threads(threads);
    const std::string at = " at " + std::to_string(threads) + " threads";
    expect_verdicts(f.csr(false), f.x, n, {0, n - 1}, "multiply_fused" + at);
    expect_verdicts(f.csr(true), f.x, n, {0, n - 1}, "multiply_active" + at);
    // First and last lane of the first and the last state.
    expect_verdicts(f.phase(), f.lanes, states,
                    {0, k - 1, (states - 1) * k, states * k - 1},
                    "multiply_phase_fused" + at);
  }
  ThreadPool::set_global_threads(1);
}

TEST(ConvergencePredicate, NanNeverConverges) {
  // A NaN entry has no |y - x| <= tolerance, not even for an infinite
  // tolerance, so an iterate holding one never triggers the cutoff.
  const PredicateFixture f;
  const std::size_t n = PredicateFixture::kStates;
  const std::size_t lanes = f.lanes.size();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::set_global_threads(threads);
    const std::string at = " at " + std::to_string(threads) + " threads";
    for (std::size_t i : {std::size_t{0}, n / 2, n - 1}) {
      std::vector<double> x = f.x;
      x[i] = nan;
      expect_verdict(f.csr(false), x, n, inf, false,
                     "multiply_fused, NaN at " + std::to_string(i) + at);
      expect_verdict(f.csr(true), x, n, inf, false,
                     "multiply_active, NaN at " + std::to_string(i) + at);
    }
    for (std::size_t i : {std::size_t{0}, lanes / 2, lanes - 1}) {
      std::vector<double> x = f.lanes;
      x[i] = nan;
      expect_verdict(f.phase(), x, PredicateFixture::kPhaseStates, inf, false,
                     "multiply_phase_fused, NaN at " + std::to_string(i) + at);
    }
  }
  ThreadPool::set_global_threads(1);
}

#ifndef CSRL_OBS_DISABLED

// -- Rows-active accounting: the frontier path touches far fewer rows -----

TEST(ActiveSupport, FrontierReducesRowsTouched) {
  const Mrm model = birth_death_mrm(512, 2.0, 3.0);
  const Ctmc& chain = model.chain();
  StateSet target(model.num_states());
  target.insert(0);
  const double t = 1.0;

  obs::ScopedRecording recording;
  const obs::MetricsSnapshot before_dense = obs::snapshot_metrics();
  const auto dense = transient_reach(chain, target, t, dense_options());
  const std::uint64_t rows_dense =
      obs::metrics_delta(before_dense, obs::snapshot_metrics())
          .counter("matrix/spmv/rows_active");

  const obs::MetricsSnapshot before_active = obs::snapshot_metrics();
  const auto active = transient_reach(chain, target, t, active_options());
  const std::uint64_t rows_active =
      obs::metrics_delta(before_active, obs::snapshot_metrics())
          .counter("matrix/spmv/rows_active");

  expect_bitwise_equal(dense, active, "rows-active accounting run");
  ASSERT_GT(rows_active, 0u);
  EXPECT_GE(rows_dense, 3 * rows_active)
      << "frontier iteration no longer reduces rows touched by >= 3x";
}

#endif  // CSRL_OBS_DISABLED

}  // namespace
}  // namespace csrl
