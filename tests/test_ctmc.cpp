#include "ctmc/ctmc.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace csrl {
namespace {

Ctmc two_state() {
  CsrBuilder b(2, 2);
  b.add(0, 1, 3.0);
  b.add(1, 0, 1.0);
  return Ctmc(b.build());
}

TEST(Ctmc, ExitRates) {
  const Ctmc c = two_state();
  EXPECT_DOUBLE_EQ(c.exit_rate(0), 3.0);
  EXPECT_DOUBLE_EQ(c.exit_rate(1), 1.0);
  EXPECT_DOUBLE_EQ(c.max_exit_rate(), 3.0);
  EXPECT_FALSE(c.is_absorbing(0));
}

TEST(Ctmc, AbsorbingState) {
  CsrBuilder b(2, 2);
  b.add(0, 1, 2.0);
  const Ctmc c(b.build());
  EXPECT_TRUE(c.is_absorbing(1));
  EXPECT_DOUBLE_EQ(c.exit_rate(1), 0.0);
}

TEST(Ctmc, SelfLoopCountsTowardsExitRate) {
  CsrBuilder b(1, 1);
  b.add(0, 0, 5.0);
  const Ctmc c(b.build());
  EXPECT_DOUBLE_EQ(c.exit_rate(0), 5.0);
  EXPECT_FALSE(c.is_absorbing(0));
}

TEST(Ctmc, NegativeRateThrows) {
  CsrBuilder b(1, 1);
  b.add(0, 0, -1.0);
  EXPECT_THROW(Ctmc{b.build()}, ModelError);
}

TEST(Ctmc, RectangularThrows) {
  EXPECT_THROW(Ctmc{CsrMatrix(2, 3)}, ModelError);
}

TEST(Ctmc, EmbeddedDtmcIsStochastic) {
  CsrBuilder b(3, 3);
  b.add(0, 1, 1.0);
  b.add(0, 2, 3.0);
  b.add(1, 0, 2.0);
  const Ctmc c(b.build());
  const CsrMatrix p = c.embedded_dtmc();
  EXPECT_DOUBLE_EQ(p.at(0, 1), 0.25);
  EXPECT_DOUBLE_EQ(p.at(0, 2), 0.75);
  EXPECT_DOUBLE_EQ(p.at(1, 0), 1.0);
  // Absorbing state 2 gets a self-loop.
  EXPECT_DOUBLE_EQ(p.at(2, 2), 1.0);
  for (double s : p.row_sums()) EXPECT_NEAR(s, 1.0, 1e-15);
}

TEST(Ctmc, UniformisedDtmc) {
  const Ctmc c = two_state();
  const CsrMatrix p = c.uniformised_dtmc(4.0);
  EXPECT_DOUBLE_EQ(p.at(0, 1), 0.75);
  EXPECT_DOUBLE_EQ(p.at(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(p.at(1, 0), 0.25);
  EXPECT_DOUBLE_EQ(p.at(1, 1), 0.75);
  for (double s : p.row_sums()) EXPECT_NEAR(s, 1.0, 1e-15);
}

TEST(Ctmc, UniformisationRateAtMaxExitIsAllowed) {
  const Ctmc c = two_state();
  const CsrMatrix p = c.uniformised_dtmc(3.0);
  EXPECT_DOUBLE_EQ(p.at(0, 0), 0.0);
  for (double s : p.row_sums()) EXPECT_NEAR(s, 1.0, 1e-15);
}

TEST(Ctmc, UniformisationRateTooSmallThrows) {
  const Ctmc c = two_state();
  EXPECT_THROW((void)c.uniformised_dtmc(2.0), ModelError);
  EXPECT_THROW((void)c.uniformised_dtmc(0.0), ModelError);
}

TEST(Ctmc, EmptyChain) {
  const Ctmc c;
  EXPECT_EQ(c.num_states(), 0u);
  EXPECT_DOUBLE_EQ(c.max_exit_rate(), 0.0);
}

}  // namespace
}  // namespace csrl
