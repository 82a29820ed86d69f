// CheckOptions::lump as a transparent preprocessing pass: everything a
// user can observe through the public Checker (and CheckerService)
// surface must be indistinguishable from the unlumped checker, up to FP
// noise in lifted values.  The differential workhorse is replicated_mrm
// (models/synthetic.hpp): clone copies are ordinarily lumpable and their
// CSR rows equal the base rows entry for entry, so quotient-vs-full
// agreement is tight to rounding, not engine truncation.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/artifacts.hpp"
#include "core/batch.hpp"
#include "core/checker.hpp"
#include "logic/parser.hpp"
#include "models/synthetic.hpp"
#include "mrm/lumping.hpp"
#include "obs/obs.hpp"
#include "service/service.hpp"
#include "util/error.hpp"
#include "util/state_set.hpp"
#include "util/thread_pool.hpp"

namespace csrl {
namespace {

CheckOptions with_lump(CheckOptions options = {}) {
  options.lump = true;
  return options;
}

/// Largest-gap midpoint of the distinct values: a Sat threshold maximally
/// far from every per-state probability (see bench_ablation_lumping).
double widest_gap_midpoint(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  double best = values.front() / 2.0;
  double best_gap = values.front();
  for (std::size_t i = 1; i < values.size(); ++i) {
    const double gap = values[i] - values[i - 1];
    if (gap > best_gap) {
      best_gap = gap;
      best = (values[i] + values[i - 1]) / 2.0;
    }
  }
  return best;
}

void expect_close(const std::vector<double>& a, const std::vector<double>& b,
                  double tolerance, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t s = 0; s < a.size(); ++s)
    EXPECT_NEAR(a[s], b[s], tolerance) << what << " state " << s;
}

TEST(LumpChecker, DifferentialAcrossEnginesSeedsAndThreadCounts) {
  // Bounded-until (P3) values and data-driven Sat sets, lumped vs
  // unlumped, under all three engines and at 1 vs 4 threads.  The
  // time/reward bounds are multiples of 1/64 and the rewards integers,
  // so the discretisation engine applies unchanged.
  const char* kValueQuery = "P=? [ a U[0,1.5]{0,4} b ]";
  for (std::uint64_t seed : {3u, 7u, 21u, 42u}) {
    const std::size_t clones = seed % 2 == 0 ? 4 : 2;
    const Mrm model = replicated_mrm(random_mrm(seed, 40, 0.1), clones);
    for (P3Engine engine : {P3Engine::kSericola, P3Engine::kDiscretisation,
                            P3Engine::kErlang}) {
      CheckOptions options;
      options.engine = engine;
      const Checker plain(model, options);
      const std::vector<double> expected =
          plain.values(*parse_formula(kValueQuery));

      char sat_query[96];
      std::snprintf(sat_query, sizeof sat_query,
                    "P>=%.17g [ a U[0,1.5]{0,4} b ]",
                    widest_gap_midpoint(expected));
      const StateSet expected_sat = plain.sat(*parse_formula(sat_query));

      for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " engine " +
                     engine_label(options) + " threads " +
                     std::to_string(threads));
        ThreadPool::set_global_threads(threads);
        const Checker lumped(model, with_lump(options));
        expect_close(expected, lumped.values(*parse_formula(kValueQuery)),
                     1e-9, "values");
        EXPECT_TRUE(expected_sat == lumped.sat(*parse_formula(sat_query)));
      }
      ThreadPool::set_global_threads(0);
    }
  }
}

TEST(LumpChecker, UntilGridLatticeLiftsCellByCell) {
  const Mrm model = replicated_mrm(random_mrm(11, 32, 0.12), 2);
  BatchQuery query;
  query.phi = parse_formula("a");
  query.psi = parse_formula("b");
  query.times = {0.5, 1.5};
  query.rewards = {1.0, 4.0};

  const BatchResult expected = Checker(model).until_grid(query);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThreadPool::set_global_threads(threads);
    const BatchResult lumped =
        Checker(model, with_lump()).until_grid(query);
    EXPECT_EQ(lumped.times, expected.times);
    EXPECT_EQ(lumped.rewards, expected.rewards);
    EXPECT_EQ(lumped.initial_state, expected.initial_state);
    ASSERT_EQ(lumped.per_state.size(), expected.per_state.size());
    for (std::size_t g = 0; g < expected.per_state.size(); ++g)
      expect_close(expected.per_state[g], lumped.per_state[g], 1e-9,
                   "cell " + std::to_string(g));
  }
  ThreadPool::set_global_threads(0);
}

TEST(LumpChecker, EnvOverrideParsesLikeTheOtherKnobs) {
  // Explicit settings win outright.
  ASSERT_EQ(setenv("CSRL_LUMP", "0", 1), 0);
  EXPECT_TRUE(resolve_lump(true));
  ASSERT_EQ(setenv("CSRL_LUMP", "1", 1), 0);
  EXPECT_FALSE(resolve_lump(false));
  // Unset options fall through to the environment.
  EXPECT_TRUE(resolve_lump(std::nullopt));
  ASSERT_EQ(setenv("CSRL_LUMP", "0", 1), 0);
  EXPECT_FALSE(resolve_lump(std::nullopt));
  // Malformed values warn on stderr and fall back to off — never throw.
  for (const char* bad : {"banana", "2", "-1", "", "1x"}) {
    ASSERT_EQ(setenv("CSRL_LUMP", bad, 1), 0);
    EXPECT_FALSE(resolve_lump(std::nullopt)) << "CSRL_LUMP=" << bad;
  }
  ASSERT_EQ(unsetenv("CSRL_LUMP"), 0);
  EXPECT_FALSE(resolve_lump(std::nullopt));
}

TEST(LumpChecker, EnvOverrideReachesTheChecker) {
  const Mrm model = independent_machines_mrm(3, 0.5, 1.0);
  CheckOptions reporting;
  reporting.report = true;
  const auto formula = parse_formula("P=? [ F[0,1] all_down ]");

  ASSERT_EQ(setenv("CSRL_LUMP", "1", 1), 0);
  const CheckResult on = Checker(model, reporting).check(*formula);
  ASSERT_TRUE(on.report.has_value());
  EXPECT_TRUE(on.report->lumping.enabled);
  EXPECT_EQ(on.report->lumping.states, 4u);
  EXPECT_NE(on.report->to_json().find("\"lumping\""), std::string::npos);

  // An explicit lump=false beats the environment.
  CheckOptions forced_off = reporting;
  forced_off.lump = false;
  const CheckResult off = Checker(model, forced_off).check(*formula);
  ASSERT_TRUE(off.report.has_value());
  EXPECT_FALSE(off.report->lumping.enabled);
  EXPECT_EQ(off.report->to_json().find("\"lumping\""), std::string::npos);

  // A malformed value falls back to off instead of throwing.
  ASSERT_EQ(setenv("CSRL_LUMP", "banana", 1), 0);
  const CheckResult fallback = Checker(model, reporting).check(*formula);
  ASSERT_TRUE(fallback.report.has_value());
  EXPECT_FALSE(fallback.report->lumping.enabled);
  ASSERT_EQ(unsetenv("CSRL_LUMP"), 0);

  EXPECT_NEAR(on.value, off.value, 1e-12);
  EXPECT_NEAR(fallback.value, off.value, 1e-12);
}

TEST(LumpChecker, ConflictingImpulsesFailConstruction) {
  // Same conflict model as test_lumping.cpp: two mutually symmetric
  // absorbing states reached with different impulses.  The error must
  // surface at Checker construction, not mid-query.
  CsrBuilder b(3, 3);
  b.add(0, 1, 1.0);
  b.add(0, 2, 1.0);
  CsrBuilder imp(3, 3);
  imp.add(0, 1, 1.0);
  imp.add(0, 2, 2.0);
  const Mrm m = Mrm(Ctmc(b.build()), {1.0, 0.0, 0.0}, Labelling(3), 0)
                    .with_impulses(imp.build());
  EXPECT_THROW(Checker(m, with_lump()), ModelError);
}

TEST(LumpChecker, SteadyValuesMatchUnlumped) {
  const Mrm model = replicated_mrm(random_mrm(9, 24, 0.15), 2);
  const Checker plain(model);
  const Checker lumped(model, with_lump());

  // Sat(a) is block-invariant by construction, so S=? [ a ] lifts back
  // and agrees with the unlumped checker.
  ASSERT_FALSE(plain.sat(*parse_formula("a")).empty());
  const FormulaPtr steady = parse_formula("S=? [ a ]");
  expect_close(plain.values(*steady), lumped.values(*steady), 1e-9, "steady");
}

TEST(LumpChecker, InitialStateIsReadOnTheOriginalModel) {
  // replicated_mrm splits the initial mass over the clone copies of state
  // 0; the quotient puts it all on one block.  Both checkers must still
  // refuse the mixed distribution.
  const Mrm mixed = replicated_mrm(random_mrm(9, 24, 0.15), 2);
  const FormulaPtr query = parse_formula("P=? [ a U[0,1] b ]");
  const FormulaPtr bounded = parse_formula("P>=0.5 [ a U[0,1] b ]");
  for (const CheckOptions& options : {CheckOptions{}, with_lump()}) {
    const Checker checker(mixed, options);
    EXPECT_THROW((void)checker.value_initially(*query), ModelError);
    EXPECT_THROW((void)checker.holds_initially(*bounded), ModelError);
    EXPECT_THROW((void)checker.check(*query), ModelError);
  }

  // The same chain started in one clone's copy of state 0: both modes
  // read that state's value.
  std::size_t start = 0;
  while (mixed.initial_distribution()[start] == 0.0) ++start;
  const Mrm single(mixed.chain(), mixed.rewards(), mixed.labelling(), start);
  ASSERT_LT(lump(single).quotient.num_states(), single.num_states());
  const Checker plain(single);
  const Checker lumped(single, with_lump());
  EXPECT_NEAR(lumped.value_initially(*query), plain.value_initially(*query),
              1e-9);
  EXPECT_EQ(plain.value_initially(*query), plain.values(*query)[start]);
  EXPECT_EQ(lumped.holds_initially(*bounded), plain.holds_initially(*bounded));
}

TEST(LumpChecker, SharedSatCacheScopesLumpedAndUnlumpedApart) {
  // The quotient fingerprints as its own model, so one SatCache can
  // serve a lumped and an unlumped checker of the same Mrm without
  // either reading the other's (differently-numbered) entries.
  const Mrm model = replicated_mrm(random_mrm(13, 24, 0.15), 2);
  const auto cache = std::make_shared<SatCache>();
  const Checker plain(model, {}, cache);
  const Checker lumped(model, with_lump(), cache);
  const auto formula = parse_formula("P>=0.1 [ a U[0,1.5]{0,4} b ]");
  const StateSet expected = plain.sat(*formula);
  EXPECT_TRUE(lumped.sat(*formula) == expected);
  // Re-query both ways after both have populated the cache.
  EXPECT_TRUE(plain.sat(*formula) == expected);
  EXPECT_TRUE(lumped.sat(*formula) == expected);
}

TEST(LumpChecker, ServiceSessionsShareOneQuotientArtifact) {
  // Registration builds the quotient into the shared ModelArtifacts;
  // re-registering the bit-identical model must dedup by fingerprint
  // without running the refiner again.  (The machines model: the service
  // evaluates at the initial state, which must be a point mass.)
  const Mrm model = independent_machines_mrm(4, 0.5, 1.0);
  const double expected = Checker(model).value_initially(
      *parse_formula("P=? [ F[0,2] all_down ]"));

  obs::ScopedRecording recording;
  const obs::MetricsSnapshot before = obs::snapshot_metrics();

  service::ServiceOptions options;
  options.workers = 0;  // deterministic inline draining
  options.check = with_lump();
  service::CheckerService service(options);
  const service::ModelId first = service.register_model(model);
  const service::ModelId second = service.register_model(model);
  EXPECT_EQ(first, second);
  EXPECT_EQ(service.num_models(), 1u);

#ifndef CSRL_OBS_DISABLED
  const obs::MetricsSnapshot after = obs::snapshot_metrics();
  EXPECT_EQ(obs::metrics_delta(before, after).counter("lump/runs"), 1u);
#endif

  // Two sessions on the shared quotient agree with a private unlumped
  // checker.
  for (int session = 0; session < 2; ++session) {
    const service::QueryResult result =
        service.query(first, "P=? [ F[0,2] all_down ]");
    ASSERT_EQ(result.status, service::QueryStatus::kOk);
    EXPECT_NEAR(result.value, expected, 1e-9);
  }
}

TEST(LumpChecker, ArtifactsCarryTheBlockProjection) {
  const Mrm model = independent_machines_mrm(4, 0.5, 1.0);
  const auto artifacts = ModelArtifacts::build(model, with_lump());
  EXPECT_TRUE(artifacts->lumped());
  EXPECT_EQ(artifacts->internal_model().num_states(), 5u);
  EXPECT_EQ(artifacts->projection().size(), 16u);
  EXPECT_EQ(artifacts->lumping_info().original_states, 16u);
  EXPECT_EQ(artifacts->lumping_info().states, 5u);
  EXPECT_NE(artifacts->fingerprint(), artifacts->internal_fingerprint());

  // A checker over the artifact answers like a direct lumped checker.
  const Checker shared(artifacts);
  const Checker direct(model, with_lump());
  const auto formula = parse_formula("P=? [ !all_down U[0,2]{0,3} all_up ]");
  expect_close(direct.values(*formula), shared.values(*formula), 0.0,
               "artifact values");
}

}  // namespace
}  // namespace csrl
