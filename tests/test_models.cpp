#include <gtest/gtest.h>

#include <cmath>

#include "core/checker.hpp"
#include "logic/parser.hpp"
#include "models/cluster.hpp"
#include "models/multiprocessor.hpp"
#include "models/synthetic.hpp"
#include "pure_death_mrm.hpp"

namespace csrl {
namespace {

TEST(BirthDeath, Shape) {
  const Mrm m = birth_death_mrm(5, 1.0, 2.0);
  EXPECT_EQ(m.num_states(), 5u);
  EXPECT_DOUBLE_EQ(m.rates().at(2, 3), 1.0);
  EXPECT_DOUBLE_EQ(m.rates().at(2, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.reward(3), 3.0);
  EXPECT_TRUE(m.labelling().has_label(0, "empty"));
  EXPECT_TRUE(m.labelling().has_label(4, "full"));
}

TEST(PureDeath, EndsAbsorbed) {
  const Mrm m = pure_death_mrm(4, 2.0);
  EXPECT_EQ(m.initial_state(), 3u);
  EXPECT_TRUE(m.chain().is_absorbing(0));
  EXPECT_FALSE(m.chain().is_absorbing(1));
}

TEST(TandemQueue, StructureAndLabels) {
  const Mrm m = tandem_queue_mrm(2, 1, 1.0, 2.0, 3.0);
  EXPECT_EQ(m.num_states(), 6u);  // (2+1)*(1+1)
  const Checker c(m);
  EXPECT_EQ(c.sat(*parse_formula("empty")).count(), 1u);
  EXPECT_EQ(c.sat(*parse_formula("blocked")).count(), 1u);
  // Total jobs reward: state (2,1) has reward 3.
  EXPECT_DOUBLE_EQ(m.max_reward(), 3.0);
}

TEST(TandemQueue, ConservesProbabilityInChecking) {
  const Mrm m = tandem_queue_mrm(2, 2, 1.0, 1.5, 1.0);
  const Checker c(m);
  const auto p_full = c.values(*parse_formula("P=? [ F[0,5] full2 ]"));
  for (double v : p_full) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

TEST(RandomMrm, DeterministicInSeed) {
  const Mrm a = random_mrm(42, 5, 0.5);
  const Mrm b = random_mrm(42, 5, 0.5);
  EXPECT_EQ(a.rates().nnz(), b.rates().nnz());
  for (std::size_t s = 0; s < 5; ++s)
    EXPECT_DOUBLE_EQ(a.reward(s), b.reward(s));
  const Mrm c = random_mrm(43, 5, 0.5);
  // Different seed, different model (with overwhelming probability).
  bool differs = c.rates().nnz() != a.rates().nnz();
  for (std::size_t s = 0; !differs && s < 5; ++s)
    differs = a.reward(s) != c.reward(s);
  EXPECT_TRUE(differs);
}

TEST(RandomMrm, IntegerRewardsWithinRange) {
  const Mrm m = random_mrm(7, 10, 0.4, 4.0, 3);
  for (std::size_t s = 0; s < 10; ++s) {
    EXPECT_EQ(m.reward(s), std::floor(m.reward(s)));
    EXPECT_LE(m.reward(s), 3.0);
  }
}

TEST(Multiprocessor, ShapeAndLabels) {
  const Mrm m = multiprocessor_mrm({.processors = 4,
                                    .failure_rate = 0.1,
                                    .repair_rate = 1.0,
                                    .coverage = 0.9});
  EXPECT_EQ(m.num_states(), 5u);
  EXPECT_EQ(m.initial_state(), 4u);
  EXPECT_DOUBLE_EQ(m.reward(4), 4.0);
  // Covered failure 4 -> 3 at 0.4*0.9; uncovered 4 -> 0 at 0.4*0.1.
  EXPECT_NEAR(m.rates().at(4, 3), 0.36, 1e-12);
  EXPECT_NEAR(m.rates().at(4, 0), 0.04, 1e-12);
  // The last processor always crashes to "down" at full rate.
  EXPECT_NEAR(m.rates().at(1, 0), 0.1, 1e-12);
  const Checker c(m);
  EXPECT_EQ(c.sat(*parse_formula("operational")).count(), 4u);
  EXPECT_EQ(c.sat(*parse_formula("down")).count(), 1u);
  EXPECT_EQ(c.sat(*parse_formula("degraded")).count(), 3u);
}

TEST(Multiprocessor, PerfectCoverageNeverJumpsToZeroDirectly) {
  const Mrm m = multiprocessor_mrm({.processors = 3,
                                    .failure_rate = 0.2,
                                    .repair_rate = 1.0,
                                    .coverage = 1.0});
  EXPECT_DOUBLE_EQ(m.rates().at(3, 0), 0.0);
  EXPECT_GT(m.rates().at(3, 2), 0.0);
}

TEST(Multiprocessor, MeyerPerformabilityQuery) {
  // The CSRL rendering of Meyer's performability measure: probability that
  // the accumulated capacity within t stays below r while the system keeps
  // running into "down".  Just check it is a sane probability and monotone
  // in r.
  const Mrm m = multiprocessor_mrm({});
  const Checker c(m);
  const auto tight = c.values(*parse_formula("P=? [ F[0,10]{0,5} down ]"));
  const auto loose = c.values(*parse_formula("P=? [ F[0,10]{0,30} down ]"));
  EXPECT_LE(tight[m.initial_state()], loose[m.initial_state()] + 1e-9);
  EXPECT_GE(tight[m.initial_state()], 0.0);
  EXPECT_LE(loose[m.initial_state()], 1.0 + 1e-9);
}

TEST(Cluster, StateSpaceScalesAsExpected) {
  ClusterParams params;
  params.workstations_per_side = 2;
  const Mrm m = build_cluster_mrm(params);
  EXPECT_EQ(m.num_states(), 72u);  // (2+1)^2 * 2^3
}

TEST(Cluster, PremiumHoldsInitially) {
  ClusterParams params;
  params.workstations_per_side = 3;
  params.premium_threshold = 2;
  const Mrm m = build_cluster_mrm(params);
  const Checker c(m);
  EXPECT_TRUE(c.holds_initially(*parse_formula("premium")));
  EXPECT_TRUE(c.holds_initially(*parse_formula("minimum")));
  // Premium implies minimum everywhere.
  EXPECT_TRUE(c.sat(*parse_formula("premium"))
                  .subset_of(c.sat(*parse_formula("minimum"))));
}

TEST(Cluster, RewardCountsOperationalWorkstations) {
  ClusterParams params;
  params.workstations_per_side = 2;
  const Mrm m = build_cluster_mrm(params);
  EXPECT_DOUBLE_EQ(m.reward(m.initial_state()), 4.0);
  EXPECT_DOUBLE_EQ(m.max_reward(), 4.0);
}

TEST(Cluster, HighAvailabilitySteadyState) {
  ClusterParams params;
  params.workstations_per_side = 2;
  params.premium_threshold = 1;
  const Mrm m = build_cluster_mrm(params);
  const Checker c(m);
  // Repairs dominate failures by orders of magnitude.
  EXPECT_TRUE(c.holds_initially(*parse_formula("S>0.99 [ minimum ]")));
}

}  // namespace
}  // namespace csrl
