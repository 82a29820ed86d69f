#include "mrm/diagnostics.hpp"

#include <gtest/gtest.h>

#include "models/adhoc.hpp"
#include "models/synthetic.hpp"
#include "pure_death_mrm.hpp"

namespace csrl {
namespace {

TEST(Diagnostics, IrreducibleChain) {
  const Mrm m = birth_death_mrm(5, 1.0, 2.0);
  const ModelDiagnostics d = diagnose(m);
  EXPECT_EQ(d.num_states, 5u);
  EXPECT_EQ(d.num_transitions, 8u);
  EXPECT_TRUE(d.unreachable.empty());
  EXPECT_TRUE(d.deadlocks.empty());
  EXPECT_EQ(d.num_bsccs, 1u);
  EXPECT_TRUE(d.irreducible);
  EXPECT_DOUBLE_EQ(d.max_exit_rate, 3.0);
  EXPECT_DOUBLE_EQ(d.min_positive_exit_rate, 1.0);
  EXPECT_DOUBLE_EQ(d.stiffness, 3.0);
  EXPECT_EQ(d.zero_reward_states, 1u);  // state 0 has reward 0
}

TEST(Diagnostics, DeadlocksAndAbsorption) {
  const Mrm m = pure_death_mrm(4, 1.0);
  const ModelDiagnostics d = diagnose(m);
  EXPECT_EQ(d.deadlocks.members(), (std::vector<std::size_t>{0}));
  EXPECT_EQ(d.num_bsccs, 1u);
  EXPECT_FALSE(d.irreducible);  // transient states exist
}

TEST(Diagnostics, UnreachableStates) {
  CsrBuilder b(3, 3);
  b.add(0, 1, 1.0);
  b.add(2, 1, 1.0);  // state 2 reaches 1 but nothing reaches state 2
  const Mrm m(Ctmc(b.build()), {0.0, 0.0, 0.0}, Labelling(3), 0);
  const ModelDiagnostics d = diagnose(m);
  EXPECT_EQ(d.unreachable.members(), (std::vector<std::size_t>{2}));
}

TEST(Diagnostics, AdhocCaseStudyFacts) {
  const ModelDiagnostics d = diagnose(build_adhoc_mrm());
  EXPECT_EQ(d.num_states, 9u);
  EXPECT_TRUE(d.irreducible);  // "nine recurrent states"
  EXPECT_NEAR(d.max_exit_rate, 435.0, 1e-9);
  EXPECT_NEAR(d.min_positive_exit_rate, 3.75, 1e-12);  // Doze
  EXPECT_DOUBLE_EQ(d.max_reward, 350.0);
  EXPECT_FALSE(d.has_impulse_rewards);
}

TEST(Diagnostics, SummaryMentionsTheFindings) {
  CsrBuilder b(2, 2);
  b.add(0, 1, 2.0);
  const Mrm m(Ctmc(b.build()), {1.0, 0.0}, Labelling(2), 0);
  const std::string text = diagnose(m).summary();
  EXPECT_NE(text.find("states: 2"), std::string::npos);
  EXPECT_NE(text.find("absorbing states: {1}"), std::string::npos);
  EXPECT_NE(text.find("all states reachable"), std::string::npos);
}

TEST(Diagnostics, EmptyModel) {
  const ModelDiagnostics d = diagnose(Mrm{});
  EXPECT_EQ(d.num_states, 0u);
  EXPECT_EQ(d.num_bsccs, 0u);
}

}  // namespace
}  // namespace csrl
