// Differential tests for the batched P3 lattice layer (core/batch.hpp).
//
// The batched engine entry points promise two things at once: every
// lattice value is BITWISE identical to the point-by-point loop, and the
// whole lattice costs close to a single (max t, max r) solve.  Both are
// checked here against joint_grid_reference(), which loops the 1 x 1
// lattices — the acceptance bar is a >= 5x reduction in SpMV invocations
// for a 10 x 10 grid on the paper's Q3 model.  The discretisation
// lattices are diffed against the plain forward Tijms-Veldman sweeps of
// tijms_veldman_oracle.hpp instead, to 1e-12 (the adjoint recursion sums
// the same terms in another order).  On top sit
// the BatchQuery/BatchResult checker API (diffed against per-point
// formula evaluation) and the SatCache memo (hit/miss accounting,
// sharing across checkers, fingerprint scoping across models).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "core/checker.hpp"
#include "core/engines/discretisation_engine.hpp"
#include "core/engines/erlang_engine.hpp"
#include "core/engines/sericola_engine.hpp"
#include "logic/parser.hpp"
#include "models/adhoc.hpp"
#include "models/synthetic.hpp"
#include "final_state_oracle.hpp"
#include "obs/obs.hpp"
#include "tijms_veldman_oracle.hpp"
#include "util/error.hpp"

namespace csrl {
namespace {

// The acceptance grid: 10 time bounds x 10 reward bounds spanning the
// paper's Figure 1 ranges on the reduced Q3 model.
std::vector<double> ten_times() {
  std::vector<double> times;
  for (int i = 1; i <= 10; ++i) times.push_back(2.4 * i);  // up to 24 h
  return times;
}

std::vector<double> ten_rewards() {
  std::vector<double> rewards;
  for (int i = 3; i <= 12; ++i) rewards.push_back(50.0 * i);  // 150..600 mAh
  return rewards;
}

bool bitwise_equal(const std::vector<std::vector<double>>& a,
                   const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    if (!a[i].empty() &&
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(double)) !=
            0)
      return false;
  }
  return true;
}

std::uint64_t spmv_total(const obs::MetricsSnapshot& delta) {
  return delta.counter("spmv/multiply") + delta.counter("spmv/multiply_left");
}

struct MeasuredGrid {
  std::vector<std::vector<double>> grid;
  std::uint64_t spmvs = 0;
};

template <typename Fn>
MeasuredGrid measure(Fn&& fn) {
  const obs::ScopedRecording rec(true);
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  MeasuredGrid out;
  out.grid = fn();
  out.spmvs = spmv_total(obs::metrics_delta(before, obs::snapshot_metrics()));
  return out;
}

StateSet q3_success_target() {
  StateSet target(5);
  target.insert(3);  // the amalgamated success state of the reduced MRM
  return target;
}

TEST(BatchGridSericola, TenByTenLatticeBitwiseEqualsPointLoopFiveFoldCheaper) {
  const Mrm model = build_q3_reduced_mrm();
  const StateSet target = q3_success_target();
  const std::vector<double> times = ten_times();
  const std::vector<double> rewards = ten_rewards();
  const SericolaEngine engine(1e-9);

  const MeasuredGrid batched = measure([&] {
    return engine.joint_probability_all_starts_grid(model, times, rewards,
                                                    target);
  });
  const MeasuredGrid looped = measure([&] {
    return joint_grid_reference(engine, model, times, rewards, target);
  });

  ASSERT_EQ(batched.grid.size(), times.size() * rewards.size());
  EXPECT_TRUE(bitwise_equal(batched.grid, looped.grid));
#ifndef CSRL_OBS_DISABLED
  // The acceptance criterion: one batched pass beats the 100-point loop
  // by at least 5x in SpMV invocations (in practice far more — the
  // occupation-time recursion restarts from scratch at every point).
  EXPECT_GT(batched.spmvs, 0u);
  EXPECT_GE(looped.spmvs, 5 * batched.spmvs)
      << "looped " << looped.spmvs << " vs batched " << batched.spmvs;
#endif
}

TEST(BatchGridErlang, TenByTenLatticeBitwiseEqualsPointLoopFiveFoldCheaper) {
  const Mrm model = build_q3_reduced_mrm();
  const StateSet target = q3_success_target();
  const std::vector<double> times = ten_times();
  const std::vector<double> rewards = ten_rewards();
  const ErlangEngine engine(128);

  const MeasuredGrid batched = measure([&] {
    return engine.joint_probability_all_starts_grid(model, times, rewards,
                                                    target);
  });
  const MeasuredGrid looped = measure([&] {
    return joint_grid_reference(engine, model, times, rewards, target);
  });

  ASSERT_EQ(batched.grid.size(), times.size() * rewards.size());
  EXPECT_TRUE(bitwise_equal(batched.grid, looped.grid));
#ifndef CSRL_OBS_DISABLED
  // One uniformisation sequence per reward column serves all ten time
  // bounds; the loop pays for every (t, r) pair separately, so the ratio
  // approaches sum(t_i) / max(t_i) = 5.5 from above.
  EXPECT_GT(batched.spmvs, 0u);
  EXPECT_GE(looped.spmvs, 5 * batched.spmvs)
      << "looped " << looped.spmvs << " vs batched " << batched.spmvs;
#endif
}

/// Largest |a - b| over two lattices of equal shape.
double max_abs_diff(const std::vector<std::vector<double>>& a,
                    const std::vector<std::vector<double>>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t g = 0; g < std::min(a.size(), b.size()); ++g) {
    EXPECT_EQ(a[g].size(), b[g].size()) << "lattice point " << g;
    for (std::size_t s = 0; s < std::min(a[g].size(), b[g].size()); ++s)
      worst = std::max(worst, std::abs(a[g][s] - b[g][s]));
  }
  return worst;
}

/// The forward single-start oracle looped over a lattice.
std::vector<std::vector<double>> oracle_all_starts_grid(
    const Mrm& model, double d, const std::vector<double>& times,
    const std::vector<double>& rewards, const StateSet& target) {
  std::vector<std::vector<double>> grid;
  for (double t : times)
    for (double r : rewards)
      grid.push_back(oracle::tijms_veldman_all_starts(model, d, t, r, target));
  return grid;
}

/// random_mrm with an impulse of 0.25 or 0.5 on two of every three arcs.
Mrm random_impulse_mrm() {
  const Mrm base = random_mrm(17, 30, 0.1);
  CsrBuilder impulses(base.num_states(), base.num_states());
  for (std::size_t s = 0; s < base.num_states(); ++s)
    for (const auto& e : base.rates().row(s))
      if ((s + e.col) % 3 != 0)
        impulses.add(s, e.col, 0.25 * static_cast<double>((s + e.col) % 3));
  return base.with_impulses(impulses.build());
}

/// Largest power-of-two step keeping E(s) * d < 1 on `model`.
double stable_step(const Mrm& model) {
  double d = 1.0;
  while (model.chain().max_exit_rate() * d >= 0.9) d /= 2.0;
  return d;
}

// The all-starts lattice runs the adjoint recursion once; the oracle runs
// one forward sweep per start state and lattice point.  The two sum the
// same terms in a different order, so they agree to rounding, not bits.
TEST(BatchGridDiscretisation, AllStartsLatticeMatchesForwardOracle) {
  const Mrm model = build_q3_reduced_mrm();
  const double d = 1.0 / 32.0;
  const std::vector<double> times{4.0, 8.0};
  const std::vector<double> rewards{200.0, 400.0};
  const DiscretisationEngine engine(d);

  const std::vector<std::vector<double>> batched =
      engine.joint_probability_all_starts_grid(model, times, rewards,
                                               q3_success_target());
  EXPECT_LE(max_abs_diff(batched, oracle_all_starts_grid(model, d, times,
                                                         rewards,
                                                         q3_success_target())),
            1e-12);
}

TEST(BatchGridDiscretisation, ImpulseAllStartsLatticeMatchesForwardOracle) {
  const Mrm model = random_impulse_mrm();
  ASSERT_TRUE(model.has_impulse_rewards());
  const StateSet& target = model.labelling().states_with("b");
  const double d = stable_step(model);
  const std::vector<double> times{16.0 * d, 32.0 * d};
  const std::vector<double> rewards{24.0 * d, 48.0 * d};
  const DiscretisationEngine engine(d);

  const std::vector<std::vector<double>> batched =
      engine.joint_probability_all_starts_grid(model, times, rewards, target);
  EXPECT_LE(
      max_abs_diff(batched,
                   oracle_all_starts_grid(model, d, times, rewards, target)),
      1e-12);
}

TEST(BatchGridDiscretisation, IntervalUntilAllStartsMatchesForwardOracle) {
  for (const Mrm& model : {random_mrm(23, 30, 0.1), random_impulse_mrm()}) {
    const StateSet& phi = model.labelling().states_with("a");
    const StateSet& psi = model.labelling().states_with("b");
    const double d = stable_step(model);
    const Interval time{8.0 * d, 32.0 * d};
    const Interval reward{4.0 * d, 40.0 * d};
    const DiscretisationEngine engine(d);

    const std::vector<double> adjoint =
        engine.interval_until_all_starts(model, phi, psi, time, reward);
    const std::vector<double> forward =
        oracle::tijms_veldman_interval_until_all_starts(model, d, phi, psi,
                                                        time, reward);
    EXPECT_LE(max_abs_diff({adjoint}, {forward}), 1e-12);
    EXPECT_GT(*std::max_element(forward.begin(), forward.end()), 0.0);
    // The value from the initial distribution is alpha . the all-starts
    // vector.
    EXPECT_NEAR(oracle::from_initial(model, adjoint),
                forward[model.initial_state()], 1e-12);
  }
}

TEST(BatchCheckerApi, UntilGridMatchesPointwiseFormulaEvaluation) {
  const Mrm m = build_adhoc_mrm();
  const Checker checker(m);

  BatchQuery query;
  query.phi = parse_formula("Call_Idle | Doze");
  query.psi = parse_formula("Call_Initiated");
  query.times = {8.0, 16.0, 24.0};
  query.rewards = {200.0, 400.0, 600.0};
  const BatchResult result = checker.until_grid(query);

  ASSERT_EQ(result.per_state.size(), 9u);
  for (std::size_t i = 0; i < query.times.size(); ++i) {
    for (std::size_t j = 0; j < query.rewards.size(); ++j) {
      const FormulaPtr point = Formula::probability_query(PathFormula::until(
          Interval::upto(query.times[i]), Interval::upto(query.rewards[j]),
          query.phi, query.psi));
      const std::vector<double> expected = checker.values(*point);
      const std::vector<double>& got = result.at(i, j);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t s = 0; s < got.size(); ++s)
        EXPECT_EQ(got[s], expected[s])
            << "(t, r) = (" << query.times[i] << ", " << query.rewards[j]
            << "), state " << s;
      EXPECT_EQ(result.value_at(i, j), checker.value_initially(*point));
    }
  }
}

TEST(BatchCheckerApi, TrivialLatticePointsAgreeWithPointPath) {
  const Mrm m = build_adhoc_mrm();
  const Checker checker(m);

  BatchQuery query;
  query.phi = parse_formula("Call_Idle | Doze");
  query.psi = parse_formula("Call_Initiated");
  // t = 0, r = 0 and r beyond max_reward * t exercise every trivial-case
  // branch of the engines' grid peel.
  query.times = {0.0, 1.0, 24.0};
  query.rewards = {0.0, 600.0, 1.0e6};
  const BatchResult result = checker.until_grid(query);

  for (std::size_t i = 0; i < query.times.size(); ++i) {
    for (std::size_t j = 0; j < query.rewards.size(); ++j) {
      const FormulaPtr point = Formula::probability_query(PathFormula::until(
          Interval::upto(query.times[i]), Interval::upto(query.rewards[j]),
          query.phi, query.psi));
      const std::vector<double> expected = checker.values(*point);
      const std::vector<double>& got = result.at(i, j);
      for (std::size_t s = 0; s < got.size(); ++s)
        EXPECT_EQ(got[s], expected[s])
            << "(t, r) = (" << query.times[i] << ", " << query.rewards[j]
            << "), state " << s;
    }
  }
}

TEST(BatchCheckerApi, UnsatisfiablePsiYieldsAllZeroLattice) {
  const Mrm m = build_adhoc_mrm();
  const Checker checker(m);

  BatchQuery query;
  query.psi = Formula::conjunction(Formula::atomic("Call_Idle"),
                                   Formula::negation(
                                       Formula::atomic("Call_Idle")));
  query.times = {12.0, 24.0};
  query.rewards = {600.0};
  const BatchResult result = checker.until_grid(query);

  ASSERT_EQ(result.per_state.size(), 2u);
  for (const std::vector<double>& point : result.per_state) {
    ASSERT_EQ(point.size(), m.num_states());
    for (double v : point) EXPECT_EQ(v, 0.0);
  }
}

TEST(BatchCheckerApi, NullPhiMeansEventually) {
  const Mrm m = build_adhoc_mrm();
  const Checker checker(m);

  BatchQuery query;
  query.psi = parse_formula("Call_Incoming");
  // Small bounds: with phi = true the reduction keeps the fast handover
  // states (exit rates ~435/h), and the occupation-time recursion is
  // quadratic in the Poisson truncation depth ~ lambda * t.
  query.times = {0.05, 0.1};
  query.rewards = {5.0, 20.0};
  const BatchResult result = checker.until_grid(query);

  for (std::size_t i = 0; i < query.times.size(); ++i) {
    for (std::size_t j = 0; j < query.rewards.size(); ++j) {
      const FormulaPtr point = Formula::probability_query(
          PathFormula::eventually(Interval::upto(query.times[i]),
                                  Interval::upto(query.rewards[j]),
                                  query.psi));
      const std::vector<double> expected = checker.values(*point);
      const std::vector<double>& got = result.at(i, j);
      for (std::size_t s = 0; s < got.size(); ++s)
        EXPECT_EQ(got[s], expected[s]);
    }
  }
}

TEST(BatchCheckerApi, RejectsMalformedQueries) {
  const Mrm m = build_adhoc_mrm();
  const Checker checker(m);

  BatchQuery no_psi;
  no_psi.times = {1.0};
  no_psi.rewards = {1.0};
  EXPECT_THROW(checker.until_grid(no_psi), ModelError);

  BatchQuery empty_axis;
  empty_axis.psi = parse_formula("Call_Incoming");
  empty_axis.rewards = {1.0};
  EXPECT_THROW(checker.until_grid(empty_axis), ModelError);

  BatchQuery negative;
  negative.psi = parse_formula("Call_Incoming");
  negative.times = {1.0};
  negative.rewards = {-1.0};
  EXPECT_THROW(checker.until_grid(negative), ModelError);

  BatchQuery infinite;
  infinite.psi = parse_formula("Call_Incoming");
  infinite.times = {std::numeric_limits<double>::infinity()};
  infinite.rewards = {1.0};
  EXPECT_THROW(checker.until_grid(infinite), ModelError);
}

TEST(BatchResultLattice, IndexingAndPointMassErrors) {
  const Mrm m = build_adhoc_mrm();
  BatchQuery query;
  query.phi = parse_formula("Call_Idle | Doze");
  query.psi = parse_formula("Call_Initiated");
  query.times = {6.0, 12.0};
  query.rewards = {300.0};
  const BatchResult result = Checker(m).until_grid(query);

  EXPECT_NO_THROW(result.at(1, 0));
  EXPECT_THROW(result.at(2, 0), ModelError);
  EXPECT_THROW(result.at(0, 1), ModelError);
  EXPECT_EQ(result.initial_state, m.initial_state());
  EXPECT_NO_THROW(result.value_at(0, 0));

  // A genuinely mixed initial distribution has no initial state to read;
  // value_at refuses instead of guessing.
  std::vector<double> mixed(m.num_states(), 0.0);
  mixed[0] = 0.5;
  mixed[1] = 0.5;
  const Mrm mixed_model(Ctmc(m.rates()), m.rewards(), m.labelling(), mixed);
  const BatchResult mixed_result = Checker(mixed_model).until_grid(query);
  EXPECT_EQ(mixed_result.initial_state, m.num_states());
  EXPECT_NO_THROW(mixed_result.at(0, 0));
  EXPECT_THROW(mixed_result.value_at(0, 0), ModelError);
}

TEST(SatCacheMemo, RepeatQueriesHitAndCachesShareAcrossCheckers) {
  const Mrm m = build_adhoc_mrm();
  const FormulaPtr q3 = parse_formula(kQueryQ3);

  auto cache = std::make_shared<SatCache>();
  const Checker first(m, CheckOptions{}, cache);
  first.values(*q3);
  const std::uint64_t misses_after_first = cache->stats().misses;
  const std::size_t size_after_first = cache->size();
  EXPECT_GT(size_after_first, 0u);
  EXPECT_GT(misses_after_first, 0u);
  EXPECT_EQ(cache->stats().hits, 0u);

  // The same query again: every cacheable subformula is served from the
  // memo, nothing new is inserted.
  first.values(*q3);
  EXPECT_GT(cache->stats().hits, 0u);
  EXPECT_EQ(cache->stats().misses, misses_after_first);
  EXPECT_EQ(cache->size(), size_after_first);

  // A second checker on the same model shares the entries.
  const std::uint64_t hits_before_sharing = cache->stats().hits;
  const Checker second(m, CheckOptions{}, cache);
  second.values(*q3);
  EXPECT_GT(cache->stats().hits, hits_before_sharing);
  EXPECT_EQ(cache->size(), size_after_first);
}

TEST(SatCacheMemo, ModelFingerprintScopesEntries) {
  const Mrm m = build_adhoc_mrm();
  const FormulaPtr phi = parse_formula("Call_Idle | Doze");

  auto cache = std::make_shared<SatCache>();
  const Checker original(m, CheckOptions{}, cache);
  const StateSet on_original = original.sat(*phi);
  const std::size_t size_after_first = cache->size();

  // The same formula on a *different* model (another initial state is
  // enough to change the fingerprint) must miss, not alias: invalidation
  // by construction.
  const Mrm moved(Ctmc(m.rates()), m.rewards(), m.labelling(),
                  (m.initial_state() + 1) % m.num_states());
  const Checker other(moved, CheckOptions{}, cache);
  const std::uint64_t hits_before = cache->stats().hits;
  const StateSet on_moved = other.sat(*phi);
  EXPECT_EQ(cache->stats().hits, hits_before);
  EXPECT_GT(cache->size(), size_after_first);
  // Same labelling, so the sets agree even though the entries are
  // distinct.
  EXPECT_EQ(on_original.members(), on_moved.members());
}

TEST(SatCacheMemo, HitAndMissCountersReachTheMetricsRegistry) {
  const Mrm m = build_adhoc_mrm();
  const FormulaPtr q3 = parse_formula(kQueryQ3);
  const Checker checker(m);  // private cache via cache_sat_sets

  const obs::ScopedRecording rec(true);
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  checker.values(*q3);
  checker.values(*q3);
  const obs::MetricsSnapshot delta =
      obs::metrics_delta(before, obs::snapshot_metrics());
#ifndef CSRL_OBS_DISABLED
  EXPECT_GT(delta.counter("core/sat_cache/misses"), 0u);
  EXPECT_GT(delta.counter("core/sat_cache/hits"), 0u);
#else
  EXPECT_EQ(delta.counter("core/sat_cache/misses"), 0u);
#endif
}

TEST(SatCacheMemo, DisablingTheOptionSkipsCaching) {
  const Mrm m = build_adhoc_mrm();
  const FormulaPtr q3 = parse_formula(kQueryQ3);

  CheckOptions off;
  off.cache_sat_sets = false;
  const Checker checker(m, off);

  const obs::ScopedRecording rec(true);
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  checker.values(*q3);
  checker.values(*q3);
  const obs::MetricsSnapshot delta =
      obs::metrics_delta(before, obs::snapshot_metrics());
  EXPECT_EQ(delta.counter("core/sat_cache/misses"), 0u);
  EXPECT_EQ(delta.counter("core/sat_cache/hits"), 0u);
}

TEST(SatCacheMemo, ConcurrentCheckersShareOneCacheSafely) {
  const Mrm m = build_adhoc_mrm();

  // Single-threaded reference: probe and entry counts for one
  // evaluation are deterministic (same formula traversal every run).
  auto reference = std::make_shared<SatCache>();
  {
    const FormulaPtr q3 = parse_formula(kQueryQ3);
    const Checker checker(m, CheckOptions{}, reference);
    checker.values(*q3);
  }
  const std::size_t ref_size = reference->size();
  const std::uint64_t ref_probes =
      reference->stats().hits + reference->stats().misses;
  ASSERT_GT(ref_size, 0u);

  // Hammer one shared cache from many checkers at once.  Which probes
  // hit and which miss depends on the interleaving; the invariants do
  // not: the entry set is exactly the reference's (duplicate inserts
  // collapse), every probe is accounted for, and each thread's results
  // are bitwise the reference's.
  auto cache = std::make_shared<SatCache>();
  constexpr int kThreads = 8;
  const std::vector<double> expected = [&] {
    const FormulaPtr q3 = parse_formula(kQueryQ3);
    return Checker(m, CheckOptions{}, reference).values(*q3);
  }();
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m, &cache, &expected, &mismatches] {
      const FormulaPtr q3 = parse_formula(kQueryQ3);
      const Checker checker(m, CheckOptions{}, cache);
      const std::vector<double> got = checker.values(*q3);
      if (got.size() != expected.size() ||
          std::memcmp(got.data(), expected.data(),
                      got.size() * sizeof(double)) != 0)
        mismatches.fetch_add(1);
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache->size(), ref_size);
  const SatCache::Stats stats = cache->stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * ref_probes);
  EXPECT_GE(stats.misses, reference->stats().misses);
}

TEST(BatchCheckerApi, UntilGridCarriesTheGridInItsReport) {
  const Mrm m = build_adhoc_mrm();
  CheckOptions opts;
  opts.report = true;
  const Checker checker(m, opts);

  BatchQuery query;
  query.phi = parse_formula("Call_Idle | Doze");
  query.psi = parse_formula("Call_Initiated");
  query.times = {12.0, 24.0};
  query.rewards = {300.0, 600.0};
  const BatchResult result = checker.until_grid(query);

  ASSERT_TRUE(result.report.has_value());
  EXPECT_EQ(result.report->grid_times, query.times);
  EXPECT_EQ(result.report->grid_rewards, query.rewards);
  EXPECT_EQ(result.report->engine, "sericola");
#ifndef CSRL_OBS_DISABLED
  EXPECT_GT(result.report->spmv_count, 0u);
#endif

  // And the values are the same as the unreported path.
  const BatchResult plain = Checker(m).until_grid(query);
  EXPECT_TRUE(bitwise_equal(result.per_state, plain.per_state));
  EXPECT_EQ(result.initial_state, plain.initial_state);

  // Process-wide recording alone attaches no report: only the option does.
  const obs::ScopedRecording rec(true);
  EXPECT_FALSE(Checker(m).until_grid(query).report.has_value());
}

}  // namespace
}  // namespace csrl
