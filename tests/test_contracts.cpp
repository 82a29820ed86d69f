// Tests for the runtime numerical contract layer: the contract macros
// fire by level, every Validator check fires on bad input, the in-situ
// CSRL_CONTRACT sites stay silent on a valid model (and CsrBuilder's
// fires on input that gets past its argument checks), and the engines'
// postcondition validate_joint_grid rejects bad lattices.  Levels are
// driven with ScopedValidation so the tests are independent of
// CSRL_VALIDATE.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/checker.hpp"
#include "core/validate.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/foxglynn.hpp"
#include "ctmc/uniformisation.hpp"
#include "logic/parser.hpp"
#include "matrix/csr.hpp"
#include "models/synthetic.hpp"
#include "mrm/transform.hpp"
#include "obs/obs.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace csrl {
namespace {

Mrm triangle() {
  CsrBuilder b(3, 3);
  b.add(0, 1, 1.0);
  b.add(1, 2, 2.0);
  b.add(2, 0, 3.0);
  Labelling l(3);
  return Mrm(Ctmc(b.build()), {1.0, 2.0, 4.0}, std::move(l), 0);
}

TEST(ValidationLevel, ScopedOverrideRestoresPreviousState) {
  const ValidationLevel before = validation::level();
  {
    ScopedValidation outer(ValidationLevel::kParanoid);
    EXPECT_TRUE(validation::paranoid());
    {
      ScopedValidation inner(ValidationLevel::kOff);
      EXPECT_FALSE(validation::enabled());
    }
    EXPECT_TRUE(validation::paranoid());
  }
  EXPECT_EQ(validation::level(), before);
}

TEST(ValidationLevel, ContractMacroGatesOnLevel) {
#ifdef CSRL_CONTRACTS_DISABLED
  GTEST_SKIP() << "contracts compiled out";
#endif
  {
    ScopedValidation off(ValidationLevel::kOff);
    EXPECT_NO_THROW(CSRL_CONTRACT(false, "dormant at kOff"));
    EXPECT_FALSE(CSRL_CONTRACTS_ACTIVE());
  }
  {
    ScopedValidation basic(ValidationLevel::kBasic);
    EXPECT_THROW(CSRL_CONTRACT(false, "fires at kBasic"), ContractViolation);
    EXPECT_NO_THROW(CSRL_CONTRACT(true, "passing condition"));
    EXPECT_NO_THROW(CSRL_CONTRACT_PARANOID(false, "dormant at kBasic"));
  }
  {
    ScopedValidation paranoid(ValidationLevel::kParanoid);
    EXPECT_THROW(CSRL_CONTRACT_PARANOID(false, "fires at kParanoid"),
                 ContractViolation);
  }
}

TEST(ValidationLevel, ContextIsEvaluatedLazily) {
#ifdef CSRL_CONTRACTS_DISABLED
  GTEST_SKIP() << "contracts compiled out";
#endif
  ScopedValidation basic(ValidationLevel::kBasic);
  bool evaluated = false;
  [[maybe_unused]] const auto context = [&] {
    evaluated = true;
    return std::string("expensive");
  };
  CSRL_CONTRACT(true, context());
  EXPECT_FALSE(evaluated);
  EXPECT_THROW(CSRL_CONTRACT(false, context()), ContractViolation);
  EXPECT_TRUE(evaluated);
}

TEST(CsrContract, BuilderSilentOnValidMatrix) {
  ScopedValidation basic(ValidationLevel::kBasic);
  CsrBuilder b(2, 2);
  b.add(0, 1, 0.5);
  b.add(1, 0, 2.0);
  EXPECT_NO_THROW(b.build());
}

TEST(CsrContract, BuilderRejectsDuplicatesThatSumToInfinity) {
#ifdef CSRL_CONTRACTS_DISABLED
  GTEST_SKIP() << "contracts compiled out";
#endif
  // Each value is finite, so add() accepts both; only their merged sum
  // overflows, which the structural postcondition catches.
  const double big = std::numeric_limits<double>::max();
  CsrBuilder b(2, 2);
  b.add(0, 1, big);
  b.add(0, 1, big);
  {
    ScopedValidation off(ValidationLevel::kOff);
    EXPECT_NO_THROW(b.build());
  }
  ScopedValidation basic(ValidationLevel::kBasic);
  EXPECT_THROW(b.build(), ContractViolation);
}

TEST(ValidatorTest, ProbabilityVectorAndDistributionBounds) {
  const Validator v("pi");
  const std::vector<double> good{0.25, 0.75};
  EXPECT_NO_THROW(v.probability_vector(good));

  const std::vector<double> above{0.25, 1.5};
  EXPECT_THROW(v.probability_vector(above), ContractViolation);
  const std::vector<double> below{-0.25, 0.75};
  EXPECT_THROW(v.probability_vector(below), ContractViolation);
  const std::vector<double> nan{std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(v.probability_vector(nan), ContractViolation);
  const std::vector<double> deficient{0.25, 0.25};  // in bounds, sums to 0.5
  EXPECT_NO_THROW(v.probability_vector(deficient));
}

TEST(ValidatorTest, MonotoneNondecreasingAndBitwiseEqual) {
  const Validator v("engine");
  const std::vector<double> lo{0.1, 0.2};
  const std::vector<double> hi{0.1, 0.3};
  EXPECT_NO_THROW(v.monotone_nondecreasing(lo, hi, 0.0));
  EXPECT_THROW(v.monotone_nondecreasing(hi, lo, 1e-3), ContractViolation);
  EXPECT_NO_THROW(v.monotone_nondecreasing(hi, lo, 0.2));  // inside slack

  EXPECT_NO_THROW(v.bitwise_equal(lo, lo));
  const std::vector<double> almost{0.1, 0.2 + 1e-17};
  EXPECT_NO_THROW(v.bitwise_equal(lo, almost));  // 0.2 + 1e-17 rounds to 0.2
  const std::vector<double> off_by_ulp{0.1,
                                       std::nextafter(0.2, 1.0)};
  EXPECT_THROW(v.bitwise_equal(lo, off_by_ulp), ContractViolation);
  EXPECT_THROW(v.bitwise_equal(lo, std::vector<double>{0.1}),
               ContractViolation);
}

TEST(InSituContracts, UniformisedDtmcAndDualSilentOnValidModel) {
  ScopedValidation basic(ValidationLevel::kBasic);
  const Mrm m = triangle();
  EXPECT_NO_THROW(m.chain().uniformised_dtmc(4.0));
  EXPECT_NO_THROW(m.chain().embedded_dtmc());
  EXPECT_NO_THROW(dual(m));
  EXPECT_NO_THROW(poisson_weights(2048.0, 1e-12));
  StateSet target(m.num_states());
  target.insert(2);
  const double times[] = {0.5, 2.0};
  EXPECT_NO_THROW(transient_reach(m.chain(), target, 1.0));
  EXPECT_NO_THROW(transient_reach_batch(m.chain(), target, times));
}

// validate_joint_grid runs on grid-point-major lattices; every
// JointResultContract case runs on the 1 x 1 lattice {1} x {2} and on the
// 2 x 2 lattice {1, 2} x {1, 2}.
using Grid = std::vector<std::vector<double>>;

struct Lattice {
  std::vector<double> times;
  std::vector<double> rewards;
};

const Lattice kLattices[] = {{{1.0}, {2.0}}, {{1.0, 2.0}, {1.0, 2.0}}};

/// The lattice times x rewards with cell (t, r) = value(r).
template <typename Cell>
Grid lattice_of(std::span<const double> times,
                std::span<const double> rewards, Cell value) {
  Grid grid;
  for (std::size_t i = 0; i < times.size(); ++i)
    for (double r : rewards) grid.push_back(value(r));
  return grid;
}

/// A well-behaved cell: Pr = r / 4, monotone in r.
std::vector<double> quarter(double r) { return {r / 4}; }

TEST(JointResultContract, RejectsOutOfRangeResult) {
  ScopedValidation basic(ValidationLevel::kBasic);
  for (const Lattice& l : kLattices) {
    const Grid bad = lattice_of(l.times, l.rewards, [](double r) {
      return std::vector<double>{0.5, r < 2.0 ? 0.75 : 1.25};
    });
    EXPECT_THROW(validate_joint_grid("fake engine", l.times, l.rewards, bad,
                                     0.0, {}),
                 ContractViolation);
    const Grid good = lattice_of(l.times, l.rewards, [](double r) {
      return std::vector<double>{0.5, r < 2.0 ? 0.6 : 0.75};
    });
    EXPECT_NO_THROW(validate_joint_grid("fake engine", l.times, l.rewards,
                                        good, 0.0, {}));
  }
}

TEST(JointResultContract, RejectsDecreaseAlongTheRewardAxis) {
  ScopedValidation basic(ValidationLevel::kBasic);
  const Lattice& l = kLattices[1];
  // Pr{Y_t <= r} shrinking as r grows from 1 to 2, beyond the slack.
  const Grid shrinking = lattice_of(l.times, l.rewards, [](double r) {
    return std::vector<double>{r < 2.0 ? 0.5 : 0.4};
  });
  EXPECT_THROW(validate_joint_grid("fake engine", l.times, l.rewards,
                                   shrinking, 1e-9, {}),
               ContractViolation);
  EXPECT_NO_THROW(validate_joint_grid("fake engine", l.times, l.rewards,
                                      shrinking, 0.2, {}));
}

TEST(JointResultContract, ParanoidDetectsNonMonotoneEngine) {
  ScopedValidation paranoid(ValidationLevel::kParanoid);
  for (const Lattice& l : kLattices) {
    const Grid result = lattice_of(l.times, l.rewards, quarter);
    // A broken engine whose probability *grows* as the reward bound
    // shrinks: recomputing at the halved bounds yields 0.9 > r / 4.
    const auto broken = [&](std::span<const double> rr) {
      return lattice_of(l.times, rr, [&](double r) {
        return r < l.rewards.front() ? std::vector{0.9} : quarter(r);
      });
    };
    EXPECT_THROW(validate_joint_grid("broken engine", l.times, l.rewards,
                                     result, /*monotone_slack=*/1e-9, broken),
                 ContractViolation);
    // A consistent engine: bit-identical at r, smaller at r/2.
    const auto consistent = [&](std::span<const double> rr) {
      return lattice_of(l.times, rr, quarter);
    };
    EXPECT_NO_THROW(validate_joint_grid("consistent engine", l.times,
                                        l.rewards, result, 1e-9, consistent));
  }
}

TEST(JointResultContract, ParanoidDetectsSerialParallelDisagreement) {
  ScopedValidation paranoid(ValidationLevel::kParanoid);
  for (const Lattice& l : kLattices) {
    const Grid result = lattice_of(l.times, l.rewards, quarter);
    // A nondeterministic engine: the serial recompute at the original
    // bounds returns the last cell one ulp off — bitwise agreement fails.
    const auto flaky = [&](std::span<const double> rr) {
      Grid grid = lattice_of(l.times, rr, quarter);
      if (rr.back() == l.rewards.back())
        grid.back()[0] = std::nextafter(grid.back()[0], 1.0);
      return grid;
    };
    EXPECT_THROW(validate_joint_grid("flaky engine", l.times, l.rewards,
                                     result, 1e-9, flaky),
                 ContractViolation);
  }
}

TEST(JointResultContract, ParanoidCheckerP3QueriesPassOnEveryEngine) {
#ifdef CSRL_CONTRACTS_DISABLED
  GTEST_SKIP() << "contracts compiled out";
#endif
  // Integer rewards and d-aligned bounds, so the discretisation engine
  // applies; the halved bounds (0.75 / d = 24) stay on its grid too.
  const Mrm model = random_mrm(11, 12, 0.3);
  const FormulaPtr query = parse_formula("P=? [ a U[0,1]{0,1.5} b ]");
  // Per engine, a counter of its own sweep work.
  const std::pair<P3Engine, const char*> engines[] = {
      {P3Engine::kSericola, "p3/sericola/jump_levels"},
      {P3Engine::kErlang, "uniformisation/steps"},
      {P3Engine::kDiscretisation, "p3/discretisation/sweeps"}};
  for (const auto& [engine, work_counter] : engines) {
    CheckOptions options;
    options.engine = engine;
    options.erlang_phases = 32;
    options.discretisation_step = 1.0 / 32.0;
    const Checker checker(model, options);
    const obs::ScopedRecording rec(true);
    const auto checked_at = [&](ValidationLevel level, std::uint64_t& work) {
      ScopedValidation scoped(level);
      const obs::MetricsSnapshot before = obs::snapshot_metrics();
      const double value = checker.check(*query).value;
      work = obs::metrics_delta(before, obs::snapshot_metrics())
                 .counter(work_counter);
      return value;
    };
    std::uint64_t plain_work = 0;
    std::uint64_t paranoid_work = 0;
    const double plain = checked_at(ValidationLevel::kOff, plain_work);
    double checked = 0.0;
    ASSERT_NO_THROW(checked =
                        checked_at(ValidationLevel::kParanoid, paranoid_work))
        << work_counter;
    // The postcondition reads the lattice, it never changes it ...
    EXPECT_EQ(checked, plain) << work_counter;
#ifndef CSRL_OBS_DISABLED
    // ... and it really ran both recomputes: serial and at halved bounds.
    EXPECT_GT(plain_work, 0u) << work_counter;
    EXPECT_GE(paranoid_work, 3 * plain_work) << work_counter;
#endif
  }
}

TEST(ContractViolationType, IsAnErrorWithContext) {
#ifdef CSRL_CONTRACTS_DISABLED
  GTEST_SKIP() << "contracts compiled out";
#endif
  try {
    ScopedValidation basic(ValidationLevel::kBasic);
    CSRL_CONTRACT(1 + 1 == 3, std::string("arithmetic still works"));
    FAIL() << "contract did not fire";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("contract violation"), std::string::npos);
    EXPECT_NE(what.find("1 + 1 == 3"), std::string::npos);
    EXPECT_NE(what.find("arithmetic still works"), std::string::npos);
  }
}

}  // namespace
}  // namespace csrl
