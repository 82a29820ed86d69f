// Property-based fuzzing of the full checking pipeline: random models,
// random CSRL formulas, structural invariants that must hold regardless
// of the numbers.
#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "logic/parser.hpp"
#include "util/rng.hpp"

namespace csrl {
namespace {

/// Random strongly-labelled MRM with strictly positive rewards (so that
/// the duality-based P2 pipeline is available for every generated
/// formula).
Mrm fuzz_model(std::uint64_t seed) {
  SplitMix64 rng(seed * 31 + 5);
  const std::size_t n = 3 + rng.next_below(4);
  CsrBuilder b(n, n);
  std::vector<double> rewards(n, 0.0);
  Labelling l(n);
  l.add_proposition("a");
  l.add_proposition("b");
  for (std::size_t s = 0; s < n; ++s) {
    rewards[s] = 1.0 + static_cast<double>(rng.next_below(3));
    const std::size_t degree = 1 + rng.next_below(2);
    for (std::size_t e = 0; e < degree; ++e) {
      std::size_t to = rng.next_below(n - 1);
      if (to >= s) ++to;
      b.add(s, to, rng.next_double(0.2, 2.0));
    }
    if (rng.next_double() < 0.5) l.add_label(s, "a");
    if (rng.next_double() < 0.4) l.add_label(s, "b");
  }
  return Mrm(Ctmc(b.build()), std::move(rewards), std::move(l), 0);
}

/// Random state formula of bounded depth; temporal bounds stay in the
/// fragment every pipeline supports.
FormulaPtr random_formula(SplitMix64& rng, int depth) {
  const auto atom = [&]() {
    return Formula::atomic(rng.next_double() < 0.5 ? "a" : "b");
  };
  if (depth == 0) return atom();

  switch (rng.next_below(7)) {
    case 0:
      return atom();
    case 1:
      return Formula::negation(random_formula(rng, depth - 1));
    case 2:
      return Formula::conjunction(random_formula(rng, depth - 1),
                                  random_formula(rng, depth - 1));
    case 3:
      return Formula::disjunction(random_formula(rng, depth - 1),
                                  random_formula(rng, depth - 1));
    case 4: {  // steady state
      return Formula::steady_state(Comparison::kGreater,
                                   rng.next_double(0.05, 0.95),
                                   random_formula(rng, depth - 1));
    }
    default: {  // probability over a random path formula
      Interval time = Interval::unbounded();
      Interval reward = Interval::unbounded();
      if (rng.next_double() < 0.6)
        time = Interval::upto(rng.next_double(0.3, 2.0));
      if (rng.next_double() < 0.5)
        reward = Interval::upto(rng.next_double(0.3, 3.0));
      PathFormulaPtr path;
      switch (rng.next_below(4)) {
        case 0:
          path = PathFormula::next(time, reward, random_formula(rng, depth - 1));
          break;
        case 1:
          path = PathFormula::eventually(time, reward,
                                         random_formula(rng, depth - 1));
          break;
        case 2:
          path = PathFormula::globally(time, reward,
                                       random_formula(rng, depth - 1));
          break;
        default:
          path = PathFormula::until(time, reward, random_formula(rng, depth - 1),
                                    random_formula(rng, depth - 1));
          break;
      }
      return Formula::probability(Comparison::kGreaterEqual,
                                  rng.next_double(0.05, 0.95), path);
    }
  }
}

class FormulaFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FormulaFuzz, BooleanAlgebraOfSatSets) {
  const Mrm m = fuzz_model(GetParam());
  CheckOptions options;
  options.sericola_epsilon = 1e-7;
  const Checker c(m, options);
  SplitMix64 rng(GetParam());
  for (int i = 0; i < 4; ++i) {
    const FormulaPtr f = random_formula(rng, 2);
    const FormulaPtr g = random_formula(rng, 2);
    EXPECT_EQ(c.sat(*Formula::negation(f)), c.sat(*f).complement())
        << f->to_string();
    EXPECT_EQ(c.sat(*Formula::conjunction(f, g)), c.sat(*f) & c.sat(*g));
    EXPECT_EQ(c.sat(*Formula::disjunction(f, g)), c.sat(*f) | c.sat(*g));
    // De Morgan.
    EXPECT_EQ(c.sat(*Formula::negation(Formula::conjunction(f, g))),
              c.sat(*Formula::disjunction(Formula::negation(f),
                                          Formula::negation(g))));
  }
}

TEST_P(FormulaFuzz, PathProbabilitiesAreProbabilities) {
  const Mrm m = fuzz_model(GetParam());
  CheckOptions options;
  options.sericola_epsilon = 1e-7;
  const Checker c(m, options);
  SplitMix64 rng(GetParam() + 1000);
  for (int i = 0; i < 4; ++i) {
    const FormulaPtr f = random_formula(rng, 2);
    if (f->kind() != FormulaKind::kProb) continue;
    const auto probs = c.values(*Formula::probability_query(f->path()));
    for (double p : probs) {
      EXPECT_GE(p, -1e-9) << f->to_string();
      EXPECT_LE(p, 1.0 + 1e-9) << f->to_string();
    }
  }
}

TEST_P(FormulaFuzz, GloballyIsTheDualOfEventually) {
  const Mrm m = fuzz_model(GetParam());
  CheckOptions options;
  options.sericola_epsilon = 1e-7;
  const Checker c(m, options);
  SplitMix64 rng(GetParam() + 2000);
  const FormulaPtr target = random_formula(rng, 1);
  const Interval time = Interval::upto(rng.next_double(0.3, 1.5));
  const auto g = c.values(*Formula::probability_query(
      PathFormula::globally(time, Interval::unbounded(), target)));
  const auto f = c.values(*Formula::probability_query(PathFormula::eventually(
      time, Interval::unbounded(), Formula::negation(target))));
  for (std::size_t s = 0; s < m.num_states(); ++s)
    EXPECT_NEAR(g[s] + f[s], 1.0, 1e-7);
}

TEST_P(FormulaFuzz, EventuallyIsTrueUntil) {
  const Mrm m = fuzz_model(GetParam());
  const Checker c(m);
  SplitMix64 rng(GetParam() + 3000);
  const FormulaPtr target = random_formula(rng, 1);
  const Interval time = Interval::upto(rng.next_double(0.3, 1.5));
  const Interval reward = Interval::upto(rng.next_double(0.5, 2.5));
  const auto a = c.values(
      *Formula::probability_query(PathFormula::eventually(time, reward, target)));
  const auto b = c.values(*Formula::probability_query(
      PathFormula::until(time, reward, Formula::make_true(), target)));
  for (std::size_t s = 0; s < m.num_states(); ++s) EXPECT_NEAR(a[s], b[s], 1e-9);
}

TEST_P(FormulaFuzz, CachedAndUncachedAgree) {
  const Mrm m = fuzz_model(GetParam());
  CheckOptions cached;
  cached.sericola_epsilon = 1e-7;
  CheckOptions uncached = cached;
  uncached.cache_sat_sets = false;
  const Checker with(m, cached);
  const Checker without(m, uncached);
  SplitMix64 rng(GetParam() + 4000);
  for (int i = 0; i < 3; ++i) {
    const FormulaPtr f = random_formula(rng, 3);
    EXPECT_EQ(with.sat(*f), without.sat(*f)) << f->to_string();
  }
}

TEST_P(FormulaFuzz, ParseOfPrintedFormulaChecksIdentically) {
  const Mrm m = fuzz_model(GetParam());
  const Checker c(m);
  SplitMix64 rng(GetParam() + 5000);
  const FormulaPtr f = random_formula(rng, 3);
  const FormulaPtr reparsed = parse_formula(f->to_string());
  EXPECT_EQ(c.sat(*f), c.sat(*reparsed)) << f->to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormulaFuzz,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace csrl
