// Impulse rewards (the paper's Section-6 outlook): transition-triggered
// rewards earned at the jump instant.  Supported by the discretisation and
// pseudo-Erlang engines and the simulator; rejected with clear errors by
// the rate-reward-only machinery (Sericola, duality).
#include <gtest/gtest.h>

#include <cmath>

#include "core/checker.hpp"
#include "core/engines/discretisation_engine.hpp"
#include "core/engines/erlang_engine.hpp"
#include "core/engines/sericola_engine.hpp"
#include "final_state_oracle.hpp"
#include "logic/parser.hpp"
#include "mrm/transform.hpp"
#include "simulator.hpp"
#include "util/error.hpp"

namespace csrl {
namespace {

/// 0 -> 1 (absorbing) at rate a; no rate rewards, impulse iota on the arc.
/// Y_t = iota * 1{T <= t}, so Pr{Y_t <= r, X_t = 1} = Pr{T <= t} if
/// r >= iota and 0 otherwise.
Mrm impulse_hit_model(double a, double iota) {
  CsrBuilder b(2, 2);
  b.add(0, 1, a);
  CsrBuilder imp(2, 2);
  imp.add(0, 1, iota);
  Labelling l(2);
  l.add_label(1, "goal");
  return Mrm(Ctmc(b.build()), {0.0, 0.0}, std::move(l), 0)
      .with_impulses(imp.build());
}

StateSet single(std::size_t n, std::size_t s) {
  StateSet set(n);
  set.insert(s);
  return set;
}

TEST(ImpulseRewards, AttachAndQuery) {
  const Mrm m = impulse_hit_model(1.0, 2.0);
  EXPECT_TRUE(m.has_impulse_rewards());
  EXPECT_DOUBLE_EQ(m.impulse(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.impulse(1, 0), 0.0);
}

TEST(ImpulseRewards, ValidationRejectsBadImpulses) {
  CsrBuilder b(2, 2);
  b.add(0, 1, 1.0);
  const Mrm m(Ctmc(b.build()), {0.0, 0.0}, Labelling(2), 0);
  {
    CsrBuilder imp(2, 2);
    imp.add(1, 0, 1.0);  // no such transition
    EXPECT_THROW((void)m.with_impulses(imp.build()), ModelError);
  }
  {
    CsrBuilder imp(3, 3);  // wrong shape
    EXPECT_THROW((void)m.with_impulses(imp.build()), ModelError);
  }
}

TEST(ImpulseRewards, DiscretisationMatchesClosedForm) {
  const double a = 1.0, iota = 2.0, t = 1.5;
  const Mrm m = impulse_hit_model(a, iota);
  const DiscretisationEngine engine(1.0 / 256);
  // Budget above the impulse: succeeds whenever the jump happened.
  const double loose = oracle::from_initial(engine, m, t, 3.0, single(2, 1));
  EXPECT_NEAR(loose, 1.0 - std::exp(-a * t), 2e-2);
  // Budget below the impulse: the jump itself breaks the bound.
  const double tight = oracle::from_initial(engine, m, t, 1.0, single(2, 1));
  EXPECT_NEAR(tight, 0.0, 1e-9);
}

TEST(ImpulseRewards, ErlangMatchesClosedForm) {
  const double a = 1.0, iota = 2.0, t = 1.5;
  const Mrm m = impulse_hit_model(a, iota);
  const ErlangEngine engine(1024);
  const double loose =
      engine.joint_probability_all_starts(m, t, 3.0, single(2, 1))[0];
  EXPECT_NEAR(loose, 1.0 - std::exp(-a * t), 2e-2);
  const double tight =
      engine.joint_probability_all_starts(m, t, 1.0, single(2, 1))[0];
  EXPECT_NEAR(tight, 0.0, 2e-2);
}

TEST(ImpulseRewards, SimulatorMatchesClosedForm) {
  const double a = 1.0, iota = 2.0, t = 1.5;
  const Mrm m = impulse_hit_model(a, iota);
  Simulator sim(m, {.seed = 41, .samples = 100'000});
  const auto loose = sim.joint_probability(t, 3.0, single(2, 1));
  EXPECT_TRUE(loose.consistent_with(1.0 - std::exp(-a * t)));
  const auto tight = sim.joint_probability(t, 1.0, single(2, 1));
  EXPECT_DOUBLE_EQ(tight.probability, 0.0);
}

TEST(ImpulseRewards, MixedRateAndImpulseAccumulation) {
  // 0 (rho=1) -> 1 (absorbing, rho=0) at rate a with impulse 1:
  // Y_t = T + 1 for T <= t.  Pr{Y_t <= r, X_t=1} = Pr{T <= min(t, r-1)}.
  const double a = 2.0, t = 3.0, r = 2.0;
  CsrBuilder b(2, 2);
  b.add(0, 1, a);
  CsrBuilder imp(2, 2);
  imp.add(0, 1, 1.0);
  const Mrm m = Mrm(Ctmc(b.build()), {1.0, 0.0}, Labelling(2), 0)
                    .with_impulses(imp.build());
  const double exact = 1.0 - std::exp(-a * (r - 1.0));

  const DiscretisationEngine discretisation(1.0 / 512);
  EXPECT_NEAR(oracle::from_initial(discretisation, m, t, r, single(2, 1)),
              exact, 5e-3);
  const ErlangEngine erlang(1024);
  EXPECT_NEAR(
      erlang.joint_probability_all_starts(m, t, r, single(2, 1))[0], exact,
      4e-2);
  Simulator sim(m, {.seed = 43, .samples = 100'000});
  EXPECT_TRUE(sim.joint_probability(t, r, single(2, 1)).consistent_with(exact));
}

TEST(ImpulseRewards, EnginesAgreeOnABranchingModel) {
  // 0 branches to 1 (impulse 1) and 2 (impulse 3), everything earns rate
  // reward 1 (the targets are absorbing but keep earning).  With t = 2 the
  // accumulated reward at t is exactly t + impulse on either branch, so
  //   Pr{Y_2 <= 3.5, X_2 in {1,2}} = Pr{jump by 2} * Pr{branch 1} .
  // The bound 3.5 sits safely between the two atoms 3 and 5 of Y_2 — on an
  // atom the pseudo-Erlang approximation would degrade to O(1/sqrt(k)).
  CsrBuilder b(3, 3);
  b.add(0, 1, 1.0);
  b.add(0, 2, 1.0);
  CsrBuilder imp(3, 3);
  imp.add(0, 1, 1.0);
  imp.add(0, 2, 3.0);
  const Mrm m = Mrm(Ctmc(b.build()), {1.0, 1.0, 1.0}, Labelling(3), 0)
                    .with_impulses(imp.build());
  const double t = 2.0, r = 3.5;
  StateSet target(3);
  target.insert(1);
  target.insert(2);
  const double exact = 0.5 * (1.0 - std::exp(-2.0 * t));

  const double pd = oracle::from_initial(DiscretisationEngine(1.0 / 512), m,
                                         t, r, target);
  const double pe = ErlangEngine(1024).joint_probability_all_starts(
      m, t, r, target)[0];
  Simulator sim(m, {.seed = 47, .samples = 200'000});
  const auto ps = sim.joint_probability(t, r, target);
  EXPECT_NEAR(pd, exact, 1e-2);
  EXPECT_NEAR(pe, exact, 2e-2);
  EXPECT_TRUE(ps.consistent_with(exact, 5.0)) << ps.probability;
}

TEST(ImpulseRewards, SericolaRejectsWithGuidance) {
  const Mrm m = impulse_hit_model(1.0, 2.0);
  const SericolaEngine engine(1e-9);
  try {
    (void)engine.joint_probability_all_starts(m, 1.0, 1.0, single(2, 1));
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("impulse"), std::string::npos);
  }
}

TEST(ImpulseRewards, DualityRejects) {
  const Mrm m = impulse_hit_model(1.0, 2.0);
  EXPECT_THROW((void)dual(m), ModelError);
}

TEST(ImpulseRewards, TrivialCasesStayExact) {
  const Mrm m = impulse_hit_model(1.0, 2.0);
  const DiscretisationEngine engine(1.0 / 64);
  // t = 0.
  EXPECT_EQ(oracle::per_final_state(engine, m, 0.0, 5.0),
            (std::vector<double>{1.0, 0.0}));
  // r = 0: taking the impulse transition breaks the bound, so only the
  // paths still waiting in 0 qualify.
  const std::vector<double> at_zero =
      oracle::per_final_state(engine, m, 1.0, 0.0);
  EXPECT_NEAR(at_zero[0], std::exp(-1.0), 1e-9);
  EXPECT_NEAR(at_zero[1], 0.0, 1e-12);
}

TEST(ImpulseRewards, ReductionCarriesImpulses) {
  // 0 -> 1(goal) with impulse 2; reduce for (true U{...} goal)-style sets.
  const Mrm m = impulse_hit_model(1.0, 2.0);
  StateSet phi(2, true);
  StateSet psi(2);
  psi.insert(1);
  const UntilReduction r = reduce_for_until(m, phi, psi);
  EXPECT_TRUE(r.model.has_impulse_rewards());
  EXPECT_DOUBLE_EQ(r.model.impulse(0, r.success_state), 2.0);
}

TEST(ImpulseRewards, ReductionRejectsConflictingAmalgamation) {
  // Two arcs from 0 into two different psi-states with different impulses
  // would have to merge into one reduced arc: must throw.
  CsrBuilder b(3, 3);
  b.add(0, 1, 1.0);
  b.add(0, 2, 1.0);
  CsrBuilder imp(3, 3);
  imp.add(0, 1, 1.0);
  imp.add(0, 2, 2.0);
  const Mrm m = Mrm(Ctmc(b.build()), {1.0, 0.0, 0.0}, Labelling(3), 0)
                    .with_impulses(imp.build());
  StateSet phi(3, true);
  StateSet psi(3);
  psi.insert(1);
  psi.insert(2);
  EXPECT_THROW((void)reduce_for_until(m, phi, psi), ModelError);
}

TEST(ImpulseRewards, CheckerEndToEndWithDiscretisation) {
  // Full CSRL pipeline on an impulse model: P=?[ F[0,t]{0,r} goal ].
  const Mrm m = impulse_hit_model(1.0, 2.0);
  CheckOptions options;
  options.engine = P3Engine::kDiscretisation;
  options.discretisation_step = 1.0 / 256;
  const Checker checker(m, options);
  const double p =
      checker.value_initially(*parse_formula("P=? [ F[0,1.5]{0,3} goal ]"));
  EXPECT_NEAR(p, 1.0 - std::exp(-1.5), 2e-2);
  // The reward budget below the impulse gives probability 0.
  const double zero =
      checker.value_initially(*parse_formula("P=? [ F[0,1.5]{0,1} goal ]"));
  EXPECT_NEAR(zero, 0.0, 1e-9);
}

TEST(ImpulseRewards, NextOperatorAccountsForImpulse) {
  // X{0,r} goal with impulse 2 and rho = 0: the jump earns exactly 2.
  const Mrm m = impulse_hit_model(1.0, 2.0);
  const Checker checker(m);
  EXPECT_NEAR(checker.value_initially(*parse_formula("P=? [ X{0,3} goal ]")),
              1.0, 1e-9);
  EXPECT_DOUBLE_EQ(
      checker.value_initially(*parse_formula("P=? [ X{0,1} goal ]")), 0.0);
  // With rho = 1 in the start state: rho T + 2 <= 3 means T <= 1.
  CsrBuilder b(2, 2);
  b.add(0, 1, 1.0);
  CsrBuilder imp(2, 2);
  imp.add(0, 1, 2.0);
  Labelling l(2);
  l.add_label(1, "goal");
  const Mrm m2 = Mrm(Ctmc(b.build()), {1.0, 0.0}, std::move(l), 0)
                     .with_impulses(imp.build());
  EXPECT_NEAR(
      Checker(m2).value_initially(*parse_formula("P=? [ X{0,3} goal ]")),
      1.0 - std::exp(-1.0), 1e-12);
}

}  // namespace
}  // namespace csrl
