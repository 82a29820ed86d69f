// The pseudo-Erlang engine's phase-lane runs against the explicit
// expansion.
//
// ErlangEngine never builds the (n*k + 1)-state chain: it runs
// uniformisation as k contiguous lanes over the n-state model
// (ctmc/phase_chain.hpp, matrix/phase_operator.hpp) and reads phase 0.
// Every test here compares its lattice bit for bit (memcmp) with the old
// construction, kept in tests/erlang_expansion_oracle.hpp: expansion by
// CsrBuilder, transient_reach_batch on the CSR chain, phase-0 readout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/engines/erlang_engine.hpp"
#include "ctmc/foxglynn.hpp"
#include "ctmc/phase_chain.hpp"
#include "ctmc/uniformisation.hpp"
#include "erlang_expansion_oracle.hpp"
#include "matrix/kernel_tuning.hpp"
#include "matrix/phase_operator.hpp"
#include "models/adhoc.hpp"
#include "models/synthetic.hpp"
#include "mrm/lumping.hpp"
#include "mrm/transform.hpp"
#include "obs/obs.hpp"
#include "permute_states.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace csrl {
namespace {

using Lattice = std::vector<std::vector<double>>;

/// memcmp of two lattices, cell by cell.
void expect_bitwise_equal(const Lattice& got, const Lattice& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t g = 0; g < got.size(); ++g) {
    ASSERT_EQ(got[g].size(), want[g].size()) << what << ", cell " << g;
    EXPECT_EQ(std::memcmp(got[g].data(), want[g].data(),
                          got[g].size() * sizeof(double)),
              0)
        << what << ": cell " << g << " differs from the expansion";
  }
}

/// The engine's lattice against the oracle's, same options.
void expect_matches_expansion(const Mrm& model, const std::vector<double>& times,
                              const std::vector<double>& rewards,
                              const StateSet& target, std::size_t k,
                              const TransientOptions& options,
                              const std::string& what) {
  const ErlangEngine engine(k, options);
  expect_bitwise_equal(
      engine.joint_probability_all_starts_grid(model, times, rewards, target),
      oracle::erlang_lattice(model, times, rewards, target, k, options),
      what + ", k = " + std::to_string(k));
}

StateSet states(std::size_t n, std::initializer_list<std::size_t> members) {
  StateSet set(n);
  for (std::size_t s : members) set.insert(s);
  return set;
}

StateSet last_states(const Mrm& model, std::size_t count) {
  StateSet target(model.num_states());
  for (std::size_t s = model.num_states() - count; s < model.num_states(); ++s)
    target.insert(s);
  return target;
}

/// `model` with its state order reversed, so every forward arc becomes
/// one into a lower index (a term before the diagonal of its row).
Mrm reversed(const Mrm& model) {
  std::vector<std::size_t> perm(model.num_states());
  for (std::size_t s = 0; s < perm.size(); ++s)
    perm[s] = perm.size() - 1 - s;
  return permute_states(model, perm);
}

/// The two impulse models of test_impulse_rewards.cpp: 0 -> 1 at rate a
/// with impulse iota and no rate rewards, and 0 branching to 1
/// (impulse 1) and 2 (impulse 3) with rate reward 1 everywhere.
Mrm impulse_hit_model(double a, double iota) {
  CsrBuilder b(2, 2);
  b.add(0, 1, a);
  CsrBuilder imp(2, 2);
  imp.add(0, 1, iota);
  return Mrm(Ctmc(b.build()), {0.0, 0.0}, Labelling(2), 0)
      .with_impulses(imp.build());
}

Mrm branching_impulse_model() {
  CsrBuilder b(3, 3);
  b.add(0, 1, 1.0);
  b.add(0, 2, 1.0);
  CsrBuilder imp(3, 3);
  imp.add(0, 1, 1.0);
  imp.add(0, 2, 3.0);
  return Mrm(Ctmc(b.build()), {1.0, 1.0, 1.0}, Labelling(3), 0)
      .with_impulses(imp.build());
}

TEST(ErlangPhaseOperator, Q3ReducedAtOneTwoAnd256Phases) {
  const Mrm model = build_q3_reduced_mrm();
  const StateSet target = states(5, {3});
  // Time-major 3 x 3 on the paper's Figure 1 ranges, one cell (t = 0)
  // trivial.
  const std::vector<double> times{0.0, 12.0, 24.0};
  const std::vector<double> rewards{150.0, 400.0, 600.0};
  for (std::size_t k : {1, 2, 256})
    expect_matches_expansion(model, times, rewards, target, k, {},
                             "Q3 reduced");
}

/// Two copies of the tandem queue (3, 3) whose twin states switch into
/// each other at rate 1: lumping merges every twin pair and keeps the
/// switching as a self-loop on each quotient state.
Mrm switching_twin_tandem() {
  const Mrm base = tandem_queue_mrm(3, 3, 2.0, 2.5, 2.0);
  const std::size_t n = base.num_states();
  CsrBuilder rates(2 * n, 2 * n);
  std::vector<double> rewards(2 * n);
  for (std::size_t c = 0; c < 2; ++c)
    for (std::size_t s = 0; s < n; ++s) {
      for (const CsrEntry& e : base.rates().row(s))
        rates.add(c * n + s, c * n + e.col, e.value);
      rates.add(c * n + s, (1 - c) * n + s, 1.0);
      rewards[c * n + s] = base.reward(s);
    }
  return Mrm(Ctmc(rates.build()), std::move(rewards), Labelling(2 * n), 0);
}

TEST(ErlangPhaseOperator, LumpedTandemQuotients) {
  // The replicated tandem queue lumps back to the plain queue (the shape
  // of the benchmark's Figure-1 lattices); the switching twins lump to a
  // quotient with a self-loop on every state, which exercises the merged
  // diagonal (self-loop rate plus uniformisation complement).
  const Mrm replicated =
      lump(replicated_mrm(tandem_queue_mrm(3, 3, 2.0, 2.5, 2.0), 4)).quotient;
  const Mrm twins = lump(switching_twin_tandem()).quotient;
  std::size_t self_loops = 0;
  for (std::size_t s = 0; s < twins.num_states(); ++s)
    if (twins.rates().at(s, s) > 0.0) ++self_loops;
  ASSERT_GT(self_loops, 0u) << "the quotient must exercise the merged diagonal";
  for (const Mrm* quotient : {&replicated, &twins}) {
    const StateSet target = last_states(*quotient, 4);
    const std::vector<double> times{1.0, 2.0};
    const std::vector<double> rewards{0.6 * quotient->max_reward(),
                                      1.4 * quotient->max_reward()};
    for (std::size_t k : {16, 64})
      expect_matches_expansion(*quotient, times, rewards, target, k, {},
                               quotient == &twins ? "lumped twin tandem"
                                                  : "lumped tandem");
  }
}

TEST(ErlangPhaseOperator, ImpulseModelsIncludingSpillToSink) {
  // Budgets below and above the impulses: jump windows that fit inside
  // the lanes and ones that spill into the sink.  The reversed copies put
  // every arc before the diagonal of its row.
  const std::vector<double> times{0.5, 1.5, 2.0};
  const std::vector<double> rewards{1.0, 3.0, 3.5};
  const Mrm hit = impulse_hit_model(1.0, 2.0);
  const Mrm branching = branching_impulse_model();
  for (std::size_t k : {8, 64}) {
    expect_matches_expansion(hit, times, rewards, states(2, {1}), k, {},
                             "impulse hit");
    expect_matches_expansion(reversed(hit), times, rewards, states(2, {0}), k,
                             {}, "impulse hit, reversed");
    expect_matches_expansion(branching, times, rewards, states(3, {1, 2}), k,
                             {}, "branching impulses");
    expect_matches_expansion(reversed(branching), times, rewards,
                             states(3, {0, 1}), k, {},
                             "branching impulses, reversed");
  }
}

/// random_mrm(60) with its last eight states made absorbing (keeping
/// their rewards) and some zero-reward states.
Mrm random_with_absorbing() {
  const Mrm model = random_mrm(7, 60, 0.05, 4.0, 3);
  return make_absorbing(model, last_states(model, 8), /*zero_reward=*/false);
}

TEST(ErlangPhaseOperator, RandomModelWithZeroRewardAndAbsorbingStates) {
  const Mrm model = random_with_absorbing();
  std::size_t zero_reward = 0;
  std::size_t absorbing = 0;
  for (std::size_t s = 0; s < model.num_states(); ++s) {
    if (model.reward(s) == 0.0) ++zero_reward;
    if (model.chain().is_absorbing(s)) ++absorbing;
  }
  ASSERT_GT(zero_reward, 0u);
  ASSERT_GT(absorbing, 0u);
  const std::vector<double> times{0.25, 0.5, 1.0};
  const std::vector<double> rewards{0.3, 0.9, 2.0};
  for (std::size_t k : {3, 32})
    expect_matches_expansion(model, times, rewards, last_states(model, 6), k,
                             {}, "random_mrm(60)");
}

TEST(ErlangPhaseOperator, SteadyStateCutoffFoldsTheSameTail) {
  // Long horizons on a model that drains into absorbing zero-reward
  // targets: the iterate converges long before the Poisson windows end,
  // so the run folds the remaining mass at the cutoff step.
  const Mrm base = random_mrm(7, 60, 0.05, 4.0, 3);
  const StateSet target = last_states(base, 8);
  const Mrm model = make_absorbing(base, target, /*zero_reward=*/true);
  const std::vector<double> times{5.0, 40.0, 60.0};
  const std::vector<double> rewards{20.0, 90.0};
  const obs::ScopedRecording rec(true);
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  expect_matches_expansion(model, times, rewards, target, 8, {},
                           "steady-state cutoff");
#ifndef CSRL_OBS_DISABLED
  EXPECT_GT(obs::metrics_delta(before, obs::snapshot_metrics())
                .counter("uniformisation/steady_state_cutoffs"),
            0u);
#endif

  // Each column of a multi-horizon run against one single-horizon run per
  // time, on the phase chain the engine builds for reward bound 20.  The
  // short horizons' windows end before the cutoff step, the long ones are
  // folded at it; both must carry exactly the single run's bits.
  constexpr std::size_t k = 8;
  const double phase_rate_per_reward = static_cast<double>(k) / rewards[0];
  std::vector<double> advance(model.num_states());
  for (std::size_t s = 0; s < model.num_states(); ++s)
    advance[s] = model.reward(s) * phase_rate_per_reward;
  const PhaseChain chain(model.chain(), advance,
                         model.impulse_rewards().scaled(phase_rate_per_reward),
                         k);
  const std::vector<double> horizons{0.5, 2.0, 5.0, 40.0, 50.0, 60.0};
  const obs::MetricsSnapshot batch_before = obs::snapshot_metrics();
  const Lattice batch = transient_reach_batch(chain, target, horizons);
  [[maybe_unused]] const std::uint64_t cutoff_step =
      obs::metrics_delta(batch_before, obs::snapshot_metrics())
          .counter("uniformisation/steps");
  Lattice singles;
  for (double t : horizons) {
    const double single_time[1] = {t};
    singles.push_back(transient_reach_batch(chain, target, single_time)[0]);
  }
  expect_bitwise_equal(batch, singles, "multi- vs single-horizon columns");
#ifndef CSRL_OBS_DISABLED
  // The batch stopped at its cutoff step with some windows over and at
  // least two still running.
  const double lambda = chain.max_exit_rate();
  const TransientOptions defaults;
  std::size_t ended = 0;
  std::size_t folded = 0;
  for (double t : horizons) {
    if (poisson_weights(lambda * t, defaults.epsilon).right < cutoff_step)
      ++ended;
    else
      ++folded;
  }
  EXPECT_GT(ended, 0u) << "cutoff at step " << cutoff_step;
  EXPECT_GE(folded, 2u) << "cutoff at step " << cutoff_step;
#endif
}

TEST(ErlangPhaseOperator, BitwiseAcrossThreads) {
  // The 600-state model at k = 32 has enough lane work to take the
  // parallel tile path at 4 threads.
  const Mrm small = build_q3_reduced_mrm();
  const Mrm large = random_mrm(13, 600, 0.01, 2.0, 3);
  const std::vector<double> times{0.5, 1.0, 2.0};
  for (std::size_t threads : {1, 4}) {
    ThreadPool::set_global_threads(threads);
    const std::string what = std::to_string(threads) + " thread(s)";
    expect_matches_expansion(small, {4.0, 12.0, 24.0}, {200.0, 500.0},
                             states(5, {3}), 16, {}, "Q3 reduced, " + what);
    expect_matches_expansion(large, times, {0.8, 2.5}, last_states(large, 30),
                             32, {}, "random_mrm(600), " + what);
  }
  ThreadPool::set_global_threads(1);
}

/// The band-by-band phase product the register tiles replace: every lane
/// starts from +0.0 and adds its state's bands in the listed order, one
/// pass over the lanes per band.  Pendings and verdict as documented on
/// PhaseOperator::multiply_phase_fused.
bool band_by_band_product(const PhaseOperator& op, const std::vector<double>& x,
                          std::vector<double>& y,
                          const std::vector<FusedAxpy>& pendings,
                          double tolerance) {
  const std::size_t k = op.phases();
  bool converged = tolerance >= 0.0;
  for (std::size_t s = 0; s < op.num_states(); ++s) {
    double* ys = y.data() + s * k;
    std::fill(ys, ys + k, 0.0);
    for (const PhaseBand& band : op.bands(s)) {
      const double* xs = x.data() + band.source * k + band.shift;
      for (std::size_t i = band.lo; i < band.hi; ++i) ys[i] += band.coef * xs[i];
    }
    for (const FusedAxpy& p : pendings) p.out[s] += p.weight * x[s * k];
    for (std::size_t i = 0; i < k; ++i)
      converged = converged && std::abs(ys[i] - x[s * k + i]) <= tolerance;
  }
  return converged;
}

/// A value in [-1, 1) scaled by 2^e, e in [-20, 20]: sums of such terms
/// round differently in any other order.
double spread_value(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-20, 20);
  return std::ldexp(unit(rng), exponent(rng));
}

/// Irregular bands over k lanes.  States 0-3 are fixed shapes: an empty
/// row; bands with lo > 0, hi < k and shifts 0-3 that still share lanes;
/// two bands with no lane in common; the Erlang shape (diagonal and arcs
/// over every lane, the advance over k - 1, a last-lane band).  Random
/// rows (0-6 bands, shifts 0-3, full or random lane ranges) follow until
/// the operator holds `min_terms` lane terms.
PhaseOperator irregular_operator(std::size_t k, std::size_t min_terms,
                                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<PhaseBand>> rows(4);
  std::size_t terms = 0;
  const auto add = [&](std::vector<PhaseBand>& row, std::size_t shift,
                       std::size_t lo, std::size_t hi) {
    if (lo < hi && hi + shift <= k) {
      // A raw source, wrapped to a state once every row is drawn.
      row.push_back({static_cast<std::size_t>(rng()), shift, lo, hi,
                     spread_value(rng)});
      terms += hi - lo;
    }
  };
  if (k >= 8) {
    add(rows[1], 0, 1, k - 1);
    add(rows[1], 3, 2, k - 3);
    add(rows[1], 1, 1, k - 4);
    add(rows[1], 2, 3, k - 2);
  }
  add(rows[2], 0, 0, k / 2);
  add(rows[2], 1, k / 2, k - 1);
  add(rows[3], 0, 0, k);
  add(rows[3], 0, 0, k);
  add(rows[3], 1, 0, k - 1);
  add(rows[3], 0, k - 1, k);
  while (terms < min_terms || rows.size() < 8) {
    rows.emplace_back();
    const std::size_t count = rng() % 7;
    for (std::size_t b = 0; b < count; ++b) {
      const std::size_t shift = rng() % std::min<std::size_t>(4, k);
      const std::size_t width = k - shift;
      std::size_t lo = 0;
      std::size_t hi = width;
      if (rng() % 2 == 0) {
        lo = rng() % width;
        hi = lo + 1 + rng() % (width - lo);
      }
      add(rows.back(), shift, lo, hi);
    }
  }
  std::vector<std::size_t> row_ptr{0};
  std::vector<PhaseBand> bands;
  for (std::vector<PhaseBand>& row : rows) {
    for (PhaseBand& band : row) band.source %= rows.size();
    bands.insert(bands.end(), row.begin(), row.end());
    row_ptr.push_back(bands.size());
  }
  return PhaseOperator(k, std::move(row_ptr), std::move(bands));
}

/// The phase kernel's `width` variant against band_by_band_product: y,
/// the pendings and the verdict, bit for bit, at 1 and 4 threads.
void expect_variant_matches_reference(LaneWidth width) {
  for (std::size_t k : {1, 2, 7, 15, 16, 17, 33, 255, 256, 257}) {
    // Eight states stay under the parallel threshold; the second
    // operator is large enough to take the pool's tiles at 4 threads.
    for (std::size_t min_terms : {std::size_t{0},
                                  2 * kernel_tuning::kParallelNnzThreshold}) {
      const PhaseOperator op = irregular_operator(k, min_terms, 29 + k);
      const std::size_t n = op.num_states();
      std::mt19937_64 rng(k);
      std::vector<double> x(op.size());
      for (double& v : x) v = spread_value(rng);
      std::vector<double> want(op.size());
      (void)band_by_band_product(op, x, want, {}, kNoConvergenceScan);
      // At the largest lane change the verdict flips between `edge` and
      // the next double below it.
      double edge = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i)
        edge = std::max(edge, std::abs(want[i] - x[i]));
      const double below = std::nextafter(edge, 0.0);

      for (std::size_t threads : {1, 4}) {
        ThreadPool::set_global_threads(threads);
        for (double tolerance : {kNoConvergenceScan, edge, below}) {
          const std::string what = "k = " + std::to_string(k) + ", " +
                                   std::to_string(n) + " states, " +
                                   std::to_string(threads) +
                                   " thread(s), tolerance " +
                                   std::to_string(tolerance) +
                                   (width == LaneWidth::avx2 ? ", avx2"
                                                             : ", base");
          std::vector<double> ref(op.size());
          std::vector<double> ref_a(n, 0.5), ref_b(n, -0.25);
          const bool ref_verdict = band_by_band_product(
              op, x, ref, {{0.75, ref_a.data()}, {-1.5, ref_b.data()}},
              tolerance);
          std::vector<double> got(op.size(), 1.0);
          std::vector<double> got_a(n, 0.5), got_b(n, -0.25);
          const std::vector<FusedAxpy> pendings{{0.75, got_a.data()},
                                                {-1.5, got_b.data()}};
          EXPECT_EQ(
              op.multiply_phase_fused(x, got, pendings, tolerance, width),
              ref_verdict)
              << what;
          EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                                got.size() * sizeof(double)),
                    0)
              << what;
          EXPECT_EQ(std::memcmp(got_a.data(), ref_a.data(), n * sizeof(double)),
                    0)
              << what;
          EXPECT_EQ(std::memcmp(got_b.data(), ref_b.data(), n * sizeof(double)),
                    0)
              << what;
        }
      }
      ThreadPool::set_global_threads(1);
    }
  }
}

TEST(PhaseOperatorTiles, MatchBandByBandReferenceBitwise) {
  expect_variant_matches_reference(LaneWidth::base);
}

TEST(PhaseOperatorTiles, Avx2VariantMatchesBandByBandReferenceBitwise) {
  if (!lane_width_available(LaneWidth::avx2))
    GTEST_SKIP() << "no AVX2 lane variant on this build or CPU";
  expect_variant_matches_reference(LaneWidth::avx2);
}

TEST(ErlangPhaseOperator, BandsKeepColumnOrderAndMalformedInputThrows) {
  const Mrm model = build_q3_reduced_mrm();
  const std::vector<double> advance(model.num_states(), 1.0);
  const PhaseChain chain(model.chain(), advance, CsrMatrix(), 4);
  // Within a state, bands run in the column order of the expanded row:
  // the diagonal (s, 0) before the advance (s, 1).
  const PhaseOperator p = chain.uniformised(chain.max_exit_rate());
  for (std::size_t s = 0; s < p.num_states(); ++s) {
    const auto bands = p.bands(s);
    for (std::size_t b = 1; b < bands.size(); ++b)
      EXPECT_TRUE(bands[b - 1].source < bands[b].source ||
                  (bands[b - 1].source == bands[b].source &&
                   bands[b - 1].shift <= bands[b].shift))
          << "state " << s << ", band " << b;
  }

  const std::vector<double> short_advance(2, 1.0);
  const std::vector<double> negative(model.num_states(), -1.0);
  EXPECT_THROW(PhaseChain(model.chain(), advance, CsrMatrix(), 0), ModelError);
  EXPECT_THROW(PhaseChain(model.chain(), short_advance, CsrMatrix(), 4),
               ModelError);
  EXPECT_THROW(PhaseChain(model.chain(), negative, CsrMatrix(), 4), ModelError);
  EXPECT_THROW((void)chain.uniformised(0.5 * chain.max_exit_rate()),
               ModelError);
  EXPECT_THROW(PhaseOperator(2, {0, 1}, {{0, 1, 0, 2, 0.5}}), ModelError);
  // hi + shift wraps around std::size_t.
  EXPECT_THROW(PhaseOperator(2, {0, 1}, {{0, SIZE_MAX, 0, 1, 0.5}}),
               ModelError);
}

TEST(ErlangPhaseOperator, LaneCountOverflowThrows) {
  // n * k wraps around std::size_t (4 * 2^62 == 0): the engine must
  // refuse the order rather than run on the wrapped lane count.
  const Mrm model = random_mrm(1, 4, 0.5);
  const std::size_t k = std::size_t{1} << 62;
  const std::vector<double> advance(model.num_states(), 1.0);
  EXPECT_THROW(PhaseChain(model.chain(), advance, CsrMatrix(), k), ModelError);
  const double t = 1.0;
  const double r = 0.5 * model.max_reward() * t;
  ASSERT_GT(r, 0.0);
  EXPECT_THROW((void)ErlangEngine(k).joint_probability_all_starts(
                   model, t, r, last_states(model, 1)),
               ModelError);
}

}  // namespace
}  // namespace csrl
