// End-to-end reproduction of the paper's Section 5 case study.
#include <gtest/gtest.h>

#include <cmath>

#include "core/checker.hpp"
#include "core/engines/discretisation_engine.hpp"
#include "core/engines/erlang_engine.hpp"
#include "core/engines/sericola_engine.hpp"
#include "final_state_oracle.hpp"
#include "logic/parser.hpp"
#include "models/adhoc.hpp"
#include "mrm/transform.hpp"
#include "simulator.hpp"

namespace csrl {
namespace {

/// Converged Q3 path probability of *this* implementation on the model
/// exactly as specified by Table 1 / Figure 2.  All three engines agree on
/// it to >= 6 digits; it sits 0.0016 above the paper's 0.49540399 — see
/// EXPERIMENTS.md for the analysis of that residual (the paper's own
/// rates/rewards are stated to be educated guesses, and no parameter
/// choice consistent with its Table 1 reproduces both its Table 2 and
/// Table 3 simultaneously).
constexpr double kOurQ3Reference = 0.49699672;

TEST(AdhocModel, NineRecurrentStates) {
  // "The MRM underlying the given SRN has nine recurrent states."
  const ReachabilityGraph g = build_adhoc_graph();
  EXPECT_EQ(g.model.num_states(), 9u);
}

TEST(AdhocModel, RatesMatchTable1) {
  const Mrm m = build_adhoc_mrm();
  // Initial state: both idle. Exit = doze + request + launch + ring = 19.5.
  const std::size_t init = m.initial_state();
  EXPECT_NEAR(m.chain().exit_rate(init), 19.5, 1e-12);
  EXPECT_NEAR(m.chain().max_exit_rate(), 435.0, 1e-9);  // Call_Initiated + Ad_hoc_Active
}

TEST(AdhocModel, RewardsAreAdditivePower) {
  const Mrm m = build_adhoc_mrm();
  const Labelling& l = m.labelling();
  for (std::size_t s = 0; s < m.num_states(); ++s) {
    if (l.has_label(s, "Doze")) {
      EXPECT_DOUBLE_EQ(m.reward(s), 20.0);
    }
    if (l.has_label(s, "Call_Active") && l.has_label(s, "Ad_hoc_Active")) {
      EXPECT_DOUBLE_EQ(m.reward(s), 350.0);
    }
    if (l.has_label(s, "Call_Idle") && l.has_label(s, "Ad_hoc_Idle")) {
      EXPECT_DOUBLE_EQ(m.reward(s), 100.0);
    }
  }
}

TEST(AdhocModel, ReducedModelMatchesHandConstruction) {
  // reduce_for_until on the generated 9-state model must coincide with the
  // directly-constructed 5-state reduced MRM.
  const Mrm full = build_adhoc_mrm();
  const StateSet phi = full.labelling().states_with("Call_Idle") |
                       full.labelling().states_with("Doze");
  const StateSet psi = full.labelling().states_with("Call_Initiated");
  const UntilReduction r = reduce_for_until(full, phi, psi);
  const Mrm hand = build_q3_reduced_mrm();

  ASSERT_EQ(r.model.num_states(), hand.num_states());
  // Match states by reward (20/100/200 identify the transient states).
  for (std::size_t hs = 0; hs < 3; ++hs) {
    std::size_t rs = 5;
    for (std::size_t cand = 0; cand < 3; ++cand)
      if (r.model.reward(cand) == hand.reward(hs)) rs = cand;
    ASSERT_LT(rs, 5u) << "no reduced state with reward " << hand.reward(hs);
    EXPECT_NEAR(r.model.chain().exit_rate(rs), hand.chain().exit_rate(hs),
                1e-12);
    EXPECT_NEAR(r.model.rates().at(rs, r.success_state),
                hand.rates().at(hs, 3), 1e-12);
    EXPECT_NEAR(r.model.rates().at(rs, r.fail_state), hand.rates().at(hs, 4),
                1e-12);
  }
}

TEST(AdhocCaseStudy, Q3SericolaConvergence) {
  // Table 2's qualitative content: the estimate converges monotonically in
  // epsilon and N_eps grows; final value = our reference.
  const Mrm reduced = build_q3_reduced_mrm();
  StateSet success(5);
  success.insert(3);
  double previous_n = 0.0;
  for (double eps : {1e-2, 1e-4, 1e-6, 1e-8}) {
    const SericolaEngine engine(eps);
    const double n = static_cast<double>(engine.truncation_depth(reduced, 24.0));
    EXPECT_GT(n, previous_n);
    previous_n = n;
  }
  const SericolaEngine fine(1e-10);
  const double p = fine.joint_probability_all_starts(
      reduced, kTimeBoundHours, kRewardBoundMah, success)[1];
  EXPECT_NEAR(p, kOurQ3Reference, 1e-7);
  // Shape vs the paper: within 0.4% of its converged Table 2 value.
  EXPECT_NEAR(p, kPaperQ3Reference, 2.5e-3);
}

TEST(AdhocCaseStudy, Q3TruncationDepthMatchesPaper) {
  // Table 2 reports N_eps = 594 at eps = 1e-8 (lambda t = 19.5 * 24): an
  // implementation-independent quantity up to the truncation convention.
  const Mrm reduced = build_q3_reduced_mrm();
  const SericolaEngine engine(1e-8);
  EXPECT_NEAR(static_cast<double>(engine.truncation_depth(reduced, 24.0)),
              594.0, 5.0);
}

TEST(AdhocCaseStudy, Q3ErlangConvergesFromBelow) {
  // Table 3: increasing k approaches the Sericola value monotonically, and
  // all pseudo-Erlang estimates stay below it (the paper observes the
  // same and leaves the why as an open question).
  const Mrm reduced = build_q3_reduced_mrm();
  StateSet success(5);
  success.insert(3);
  double previous = 0.0;
  for (std::size_t k : {1u, 4u, 16u, 64u, 256u}) {
    const ErlangEngine engine(k);
    const double p = engine.joint_probability_all_starts(
        reduced, kTimeBoundHours, kRewardBoundMah, success)[1];
    EXPECT_GT(p, previous) << "k=" << k;
    EXPECT_LT(p, kOurQ3Reference) << "k=" << k;
    previous = p;
  }
  EXPECT_NEAR(previous, kOurQ3Reference, 5e-4);  // k = 256: ~3 digits
}

TEST(AdhocCaseStudy, Q3DiscretisationConverges) {
  // Table 4: the Tijms-Veldman estimate approaches the Sericola value as
  // d shrinks (relative error well below 0.1% already at d = 1/32).
  const Mrm reduced = build_q3_reduced_mrm();
  double previous_error = 1.0;
  for (double d : {1.0 / 32, 1.0 / 64, 1.0 / 128}) {
    const DiscretisationEngine engine(d);
    StateSet success(reduced.num_states());
    success.insert(3);
    const double p = oracle::from_initial(engine, reduced, kTimeBoundHours,
                                          kRewardBoundMah, success);
    const double error = std::abs(p - kOurQ3Reference) / kOurQ3Reference;
    EXPECT_LT(error, previous_error) << "d=" << d;
    EXPECT_LT(error, 1e-3) << "d=" << d;
    previous_error = error;
  }
}

TEST(AdhocCaseStudy, FullPipelineFromSrnToVerdict) {
  const Mrm m = build_adhoc_mrm();
  const Checker checker(m);
  // Q3's probability is ~0.497 < 0.5: the property P>0.5[...] is violated.
  EXPECT_FALSE(checker.holds_initially(*parse_formula(kPropertyQ3)));
  EXPECT_NEAR(checker.value_initially(*parse_formula(kQueryQ3)),
              kOurQ3Reference, 1e-6);
}

TEST(AdhocCaseStudy, AllEnginesAgreeThroughTheChecker) {
  const Mrm m = build_adhoc_mrm();
  const FormulaPtr q3 = parse_formula(kQueryQ3);

  CheckOptions sericola;
  sericola.engine = P3Engine::kSericola;
  CheckOptions erlang;
  erlang.engine = P3Engine::kErlang;
  erlang.erlang_phases = 1024;
  CheckOptions discretisation;
  discretisation.engine = P3Engine::kDiscretisation;
  discretisation.discretisation_step = 1.0 / 64;

  const double ps = Checker(m, sericola).value_initially(*q3);
  const double pe = Checker(m, erlang).value_initially(*q3);
  const double pd = Checker(m, discretisation).value_initially(*q3);
  EXPECT_NEAR(ps, pe, 2e-4);
  EXPECT_NEAR(ps, pd, 2e-4);
}

TEST(AdhocCaseStudy, Q1AndQ2AreDecidable) {
  const Mrm m = build_adhoc_mrm();
  const Checker checker(m);
  const double q1 = checker.value_initially(*parse_formula(kQueryQ1));
  const double q2 = checker.value_initially(*parse_formula(kQueryQ2));
  EXPECT_GT(q1, 0.0);
  EXPECT_LE(q1, 1.0);
  EXPECT_GT(q2, 0.0);
  EXPECT_LE(q2, 1.0);
  // Within 24h an incoming call rings with near-certainty (mean time 80
  // minutes while Call_Idle): Q2 holds comfortably.
  EXPECT_TRUE(checker.holds_initially(*parse_formula(kPropertyQ2)));
}

TEST(AdhocCaseStudy, MonteCarloBracketsTheBatchedLattice) {
  // Independent cross-validation of the batched grid (core/batch.hpp):
  // every numerical lattice value must fall inside the Monte-Carlo
  // confidence interval of a trajectory simulation of the same reduced
  // model — the simulator shares no code with the engines' recursions.
  const Mrm reduced = build_q3_reduced_mrm();
  StateSet success(5);
  success.insert(3);
  const std::vector<double> times{8.0, 16.0, 24.0};
  const std::vector<double> rewards{200.0, 400.0, 600.0};

  const SericolaEngine engine(1e-9);
  const auto grid = engine.joint_probability_all_starts_grid(reduced, times,
                                                             rewards, success);

  SimulationOptions options;
  options.seed = 7;
  options.samples = 100000;
  Simulator simulator(reduced, options);
  const std::size_t init = reduced.initial_state();
  for (std::size_t i = 0; i < times.size(); ++i) {
    for (std::size_t j = 0; j < rewards.size(); ++j) {
      const SimulationEstimate estimate =
          simulator.joint_probability(times[i], rewards[j], success);
      const double value = grid[i * rewards.size() + j][init];
      EXPECT_TRUE(estimate.consistent_with(value))
          << "t = " << times[i] << ", r = " << rewards[j] << ": batched "
          << value << " vs simulated " << estimate.probability << " +/- "
          << estimate.half_width_95;
    }
  }
}

}  // namespace
}  // namespace csrl
