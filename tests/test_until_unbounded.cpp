#include <gtest/gtest.h>

#include <cmath>

#include "core/checker.hpp"
#include "logic/parser.hpp"
#include "models/synthetic.hpp"

namespace csrl {
namespace {

/// Gambler's-ruin style chain: 1 <-> 2 <-> 3 with absorbing 0 and 4.
///   i -> i+1 at rate p, i -> i-1 at rate q.
/// Absorption probabilities at 4 have the classic closed form.
Mrm gambler(double p, double q) {
  CsrBuilder b(5, 5);
  for (std::size_t i = 1; i <= 3; ++i) {
    b.add(i, i + 1, p);
    b.add(i, i - 1, q);
  }
  Labelling l(5);
  l.add_label(0, "ruin");
  l.add_label(4, "rich");
  for (std::size_t i = 1; i <= 3; ++i) l.add_label(i, "playing");
  return Mrm(Ctmc(b.build()), {0.0, 1.0, 1.0, 1.0, 0.0}, std::move(l), 2);
}

double gambler_win_probability(double p, double q, std::size_t start,
                               std::size_t n) {
  const double r = q / p;
  if (r == 1.0) return static_cast<double>(start) / static_cast<double>(n);
  return (1.0 - std::pow(r, start)) / (1.0 - std::pow(r, n));
}

TEST(UnboundedUntil, GamblersRuinClosedForm) {
  for (double p : {1.0, 2.0}) {
    const double q = 1.5;
    const Mrm m = gambler(p, q);
    const Checker c(m);
    const auto probs = c.values(*parse_formula("P=? [ playing U rich ]"));
    for (std::size_t start = 1; start <= 3; ++start)
      EXPECT_NEAR(probs[start], gambler_win_probability(p, q, start, 4), 1e-10)
          << "p=" << p << " start=" << start;
    EXPECT_DOUBLE_EQ(probs[4], 1.0);  // already rich
    EXPECT_DOUBLE_EQ(probs[0], 0.0);  // ruined
  }
}

TEST(UnboundedUntil, RatesNotJustStructureMatter) {
  const Mrm fast_up = gambler(3.0, 1.0);
  const Mrm fast_down = gambler(1.0, 3.0);
  const auto up = Checker(fast_up).values(*parse_formula("P=? [ F rich ]"));
  const auto down = Checker(fast_down).values(*parse_formula("P=? [ F rich ]"));
  EXPECT_GT(up[2], down[2]);
}

TEST(UnboundedUntil, Prob0StatesExactlyZero) {
  // From "ruin" the rich state is unreachable; the graph precomputation
  // must return exactly 0.0, not a small solver residue.
  const Mrm m = gambler(1.0, 1.0);
  const auto probs = Checker(m).values(*parse_formula("P=? [ playing U rich ]"));
  EXPECT_EQ(probs[0], 0.0);
}

TEST(UnboundedUntil, Prob1StatesExactlyOne) {
  // Chain 0 -> 1 -> 2(absorbing, goal): reaching the goal is certain.
  CsrBuilder b(3, 3);
  b.add(0, 1, 1.0);
  b.add(1, 2, 1.0);
  Labelling l(3);
  l.add_label(2, "goal");
  const Mrm m(Ctmc(b.build()), {0.0, 0.0, 0.0}, std::move(l), 0);
  const auto probs = Checker(m).values(*parse_formula("P=? [ F goal ]"));
  EXPECT_EQ(probs[0], 1.0);
  EXPECT_EQ(probs[1], 1.0);
}

TEST(UnboundedUntil, BlockedByForbiddenIntermediateStates) {
  // 0 -> 1 -> 2 where 1 is not "safe": (safe U goal) fails from 0.
  CsrBuilder b(3, 3);
  b.add(0, 1, 1.0);
  b.add(1, 2, 1.0);
  Labelling l(3);
  l.add_label(0, "safe");
  l.add_label(2, "goal");
  const Mrm m(Ctmc(b.build()), {0.0, 0.0, 0.0}, std::move(l), 0);
  const auto probs = Checker(m).values(*parse_formula("P=? [ safe U goal ]"));
  EXPECT_EQ(probs[0], 0.0);
  EXPECT_EQ(probs[1], 0.0);
  EXPECT_EQ(probs[2], 1.0);
}

TEST(UnboundedUntil, PsiStateSatisfiesImmediatelyEvenIfNotPhi) {
  CsrBuilder b(2, 2);
  b.add(0, 1, 1.0);
  Labelling l(2);
  l.add_label(1, "goal");  // state 1 is not "safe"
  l.add_label(0, "safe");
  const Mrm m(Ctmc(b.build()), {0.0, 0.0}, std::move(l), 0);
  const auto probs = Checker(m).values(*parse_formula("P=? [ safe U goal ]"));
  EXPECT_EQ(probs[1], 1.0);
  EXPECT_EQ(probs[0], 1.0);
}

TEST(UnboundedUntil, BirthDeathEventuallyFullFromAnywhere) {
  // Irreducible finite chain: every state reaches "full" with probability 1.
  const Mrm m = birth_death_mrm(6, 1.0, 2.0);
  const auto probs = Checker(m).values(*parse_formula("P=? [ F full ]"));
  for (double v : probs) EXPECT_EQ(v, 1.0);
}

TEST(UnboundedUntil, SolverChoiceDoesNotChangeResult) {
  const Mrm m = gambler(2.0, 1.0);
  CheckOptions gauss_seidel;
  gauss_seidel.solver.method = LinearMethod::kGaussSeidel;
  CheckOptions bicgstab;
  bicgstab.solver.method = LinearMethod::kBicgstab;
  const auto a =
      Checker(m, gauss_seidel).values(*parse_formula("P=? [ F rich ]"));
  const auto b = Checker(m, bicgstab).values(*parse_formula("P=? [ F rich ]"));
  for (std::size_t s = 0; s < 5; ++s) EXPECT_NEAR(a[s], b[s], 1e-9);
}

}  // namespace
}  // namespace csrl
