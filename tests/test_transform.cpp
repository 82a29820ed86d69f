#include "mrm/transform.hpp"

#include <gtest/gtest.h>

#include "models/adhoc.hpp"
#include "permute_states.hpp"
#include "util/error.hpp"

namespace csrl {
namespace {

Mrm triangle() {
  // 0 -> 1 -> 2 -> 0, rewards 1, 2, 4.
  CsrBuilder b(3, 3);
  b.add(0, 1, 1.0);
  b.add(1, 2, 2.0);
  b.add(2, 0, 3.0);
  Labelling l(3);
  l.add_label(0, "a");
  l.add_label(1, "b");
  l.add_label(2, "c");
  return Mrm(Ctmc(b.build()), {1.0, 2.0, 4.0}, std::move(l), 0);
}

StateSet of(std::size_t n, std::initializer_list<std::size_t> xs) {
  StateSet s(n);
  for (std::size_t x : xs) s.insert(x);
  return s;
}

TEST(MakeAbsorbing, DropsOutgoingRates) {
  const Mrm m = triangle();
  const Mrm frozen = make_absorbing(m, of(3, {1}), /*zero_reward=*/false);
  EXPECT_TRUE(frozen.chain().is_absorbing(1));
  EXPECT_FALSE(frozen.chain().is_absorbing(0));
  EXPECT_DOUBLE_EQ(frozen.reward(1), 2.0);  // reward kept
}

TEST(MakeAbsorbing, ZeroRewardOption) {
  const Mrm m = triangle();
  const Mrm frozen = make_absorbing(m, of(3, {1, 2}), /*zero_reward=*/true);
  EXPECT_DOUBLE_EQ(frozen.reward(1), 0.0);
  EXPECT_DOUBLE_EQ(frozen.reward(2), 0.0);
  EXPECT_DOUBLE_EQ(frozen.reward(0), 1.0);
}

TEST(MakeAbsorbing, PreservesLabellingAndInitial) {
  const Mrm m = triangle();
  const Mrm frozen = make_absorbing(m, of(3, {2}), true);
  EXPECT_TRUE(frozen.labelling().has_label(2, "c"));
  EXPECT_EQ(frozen.initial_state(), 0u);
}

TEST(ReduceForUntil, ShapeOfReducedModel) {
  const Mrm m = triangle();
  // Phi = {0, 1}, Psi = {1}: transient = {0}, success <- {1}, fail <- {2}.
  const UntilReduction r = reduce_for_until(m, of(3, {0, 1}), of(3, {1}));
  EXPECT_EQ(r.model.num_states(), 3u);  // 1 transient + success + fail
  EXPECT_EQ(r.state_map[0], 0u);
  EXPECT_EQ(r.state_map[1], r.success_state);
  EXPECT_EQ(r.state_map[2], r.fail_state);
  EXPECT_TRUE(r.model.chain().is_absorbing(r.success_state));
  EXPECT_TRUE(r.model.chain().is_absorbing(r.fail_state));
  EXPECT_DOUBLE_EQ(r.model.reward(r.success_state), 0.0);
  EXPECT_DOUBLE_EQ(r.model.reward(r.fail_state), 0.0);
  EXPECT_DOUBLE_EQ(r.model.reward(0), 1.0);
  // 0's single transition went to 1 = success.
  EXPECT_DOUBLE_EQ(r.model.rates().at(0, r.success_state), 1.0);
  EXPECT_TRUE(r.model.labelling().has_label(r.success_state, "success"));
  EXPECT_TRUE(r.model.labelling().has_label(r.fail_state, "fail"));
}

TEST(ReduceForUntil, PsiWinsOverPhi) {
  const Mrm m = triangle();
  // States in both Phi and Psi amalgamate into success, not transient.
  const UntilReduction r = reduce_for_until(m, of(3, {0, 1}), of(3, {0, 1}));
  EXPECT_EQ(r.model.num_states(), 2u);  // no transient states at all
  EXPECT_EQ(r.state_map[0], r.success_state);
}

TEST(ReduceForUntil, RatesIntoGroupsAccumulate) {
  // Two Psi states both fed from one transient state.
  CsrBuilder b(3, 3);
  b.add(0, 1, 2.0);
  b.add(0, 2, 3.0);
  const Mrm m(Ctmc(b.build()), {1.0, 1.0, 1.0}, Labelling(3), 0);
  const UntilReduction r = reduce_for_until(m, of(3, {0}), of(3, {1, 2}));
  EXPECT_DOUBLE_EQ(r.model.rates().at(0, r.success_state), 5.0);
}

TEST(ReduceForUntil, InitialMassPushesForward) {
  CsrBuilder b(3, 3);
  b.add(0, 1, 1.0);
  const Mrm m(Ctmc(b.build()), {0.0, 0.0, 0.0}, Labelling(3),
              std::vector<double>{0.2, 0.3, 0.5});
  const UntilReduction r = reduce_for_until(m, of(3, {0}), of(3, {1}));
  EXPECT_DOUBLE_EQ(r.model.initial_distribution()[0], 0.2);
  EXPECT_DOUBLE_EQ(r.model.initial_distribution()[r.success_state], 0.3);
  EXPECT_DOUBLE_EQ(r.model.initial_distribution()[r.fail_state], 0.5);
}

TEST(ReduceForUntil, AdhocQ3YieldsThreeTransientTwoAbsorbing) {
  // The paper (Section 5.4): the 9-state model reduces to 3 transient + 2
  // absorbing states for property Q3.
  const Mrm m = build_adhoc_mrm();
  const StateSet phi = m.labelling().states_with("Call_Idle") |
                       m.labelling().states_with("Doze");
  const StateSet psi = m.labelling().states_with("Call_Initiated");
  const UntilReduction r = reduce_for_until(m, phi, psi);
  EXPECT_EQ(r.model.num_states(), 5u);
  std::size_t absorbing = 0;
  for (std::size_t s = 0; s < 5; ++s)
    if (r.model.chain().is_absorbing(s)) ++absorbing;
  EXPECT_EQ(absorbing, 2u);
}

TEST(Dual, InvolutionOnPositiveRewards) {
  const Mrm m = triangle();
  const Mrm dd = dual(dual(m));
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_NEAR(dd.reward(s), m.reward(s), 1e-12);
    for (const auto& e : m.rates().row(s))
      EXPECT_NEAR(dd.rates().at(s, e.col), e.value, 1e-12);
  }
}

TEST(Dual, RatesAndRewardsScaled) {
  const Mrm m = triangle();
  const Mrm d = dual(m);
  EXPECT_DOUBLE_EQ(d.rates().at(0, 1), 1.0 / 1.0);
  EXPECT_DOUBLE_EQ(d.rates().at(1, 2), 2.0 / 2.0);
  EXPECT_DOUBLE_EQ(d.rates().at(2, 0), 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(d.reward(2), 0.25);
}

TEST(Dual, ZeroRewardNonAbsorbingThrows) {
  CsrBuilder b(2, 2);
  b.add(0, 1, 1.0);
  const Mrm m(Ctmc(b.build()), {0.0, 1.0}, Labelling(2), 0);
  EXPECT_THROW((void)dual(m), ModelError);
}

TEST(Dual, ZeroRewardAbsorbingAllowed) {
  CsrBuilder b(2, 2);
  b.add(0, 1, 2.0);
  const Mrm m(Ctmc(b.build()), {4.0, 0.0}, Labelling(2), 0);
  const Mrm d = dual(m);
  EXPECT_DOUBLE_EQ(d.rates().at(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(d.reward(1), 0.0);
  EXPECT_TRUE(d.chain().is_absorbing(1));
}

TEST(PermuteStates, MovesEveryIngredientConsistently) {
  const Mrm m = triangle();
  // perm[new] = old: new state 0 is old 2, new 1 is old 0, new 2 is old 1.
  const std::vector<std::size_t> perm{2, 0, 1};
  const Mrm p = permute_states(m, perm);
  ASSERT_EQ(p.num_states(), 3u);
  // Old transition 2 -> 0 (rate 3) is new 0 -> 1, and so on around the cycle.
  EXPECT_DOUBLE_EQ(p.rates().at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(p.rates().at(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(p.rates().at(2, 0), 2.0);
  EXPECT_DOUBLE_EQ(p.reward(0), 4.0);
  EXPECT_DOUBLE_EQ(p.reward(1), 1.0);
  EXPECT_DOUBLE_EQ(p.reward(2), 2.0);
  EXPECT_TRUE(p.labelling().has_label(0, "c"));
  EXPECT_TRUE(p.labelling().has_label(1, "a"));
  EXPECT_TRUE(p.labelling().has_label(2, "b"));
  EXPECT_EQ(p.initial_state(), 1u);  // old initial state 0
}

TEST(PermuteStates, InversePermutationRoundTrips) {
  const Mrm m = triangle();
  const std::vector<std::size_t> perm{1, 2, 0};
  std::vector<std::size_t> inverse(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) inverse[perm[i]] = i;
  const Mrm back = permute_states(permute_states(m, perm), inverse);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_DOUBLE_EQ(back.rates().at(r, c), m.rates().at(r, c));
    EXPECT_DOUBLE_EQ(back.reward(r), m.reward(r));
  }
  EXPECT_EQ(back.initial_state(), m.initial_state());
  EXPECT_TRUE(back.labelling().has_label(0, "a"));
}

TEST(PermuteStates, RejectsNonPermutations) {
  const Mrm m = triangle();
  EXPECT_THROW((void)permute_states(m, std::vector<std::size_t>{0, 1}),
               ModelError);
  EXPECT_THROW((void)permute_states(m, std::vector<std::size_t>{0, 0, 1}),
               ModelError);
  EXPECT_THROW((void)permute_states(m, std::vector<std::size_t>{0, 1, 3}),
               ModelError);
}

TEST(PermuteStates, MovesImpulseRewards) {
  CsrBuilder impulses(3, 3);
  impulses.add(0, 1, 5.0);
  const Mrm m = triangle().with_impulses(impulses.build());
  const Mrm p = permute_states(m, std::vector<std::size_t>{2, 0, 1});
  EXPECT_TRUE(p.has_impulse_rewards());
  EXPECT_DOUBLE_EQ(p.impulse(1, 2), 5.0);  // old (0, 1) under the renumbering
}

}  // namespace
}  // namespace csrl
