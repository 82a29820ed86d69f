#include "matrix/solvers.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace csrl {
namespace {

/// A 2x2 contraction A = [[0.2, 0.3], [0.1, 0.4]] and b = [1, 2]:
/// the fixpoint of x = Ax + b is x = (I-A)^{-1} b.
CsrMatrix contraction() {
  CsrBuilder b(2, 2);
  b.add(0, 0, 0.2);
  b.add(0, 1, 0.3);
  b.add(1, 0, 0.1);
  b.add(1, 1, 0.4);
  return b.build();
}

std::vector<double> exact_fixpoint() {
  // (I-A) = [[0.8, -0.3], [-0.1, 0.6]]; det = 0.45.
  // x = 1/det * [[0.6, 0.3], [0.1, 0.8]] * [1, 2] = [1.2/0.45? ...] computed:
  // x0 = (0.6*1 + 0.3*2)/0.45 = 1.2/0.45, x1 = (0.1*1 + 0.8*2)/0.45 = 1.7/0.45
  return {1.2 / 0.45, 1.7 / 0.45};
}

class SolveFixpointMethods : public ::testing::TestWithParam<LinearMethod> {};

TEST_P(SolveFixpointMethods, AgreesWithExactSolution) {
  SolverOptions options;
  options.method = GetParam();
  options.tolerance = 1e-14;
  const std::vector<double> b{1.0, 2.0};
  const std::vector<double> x = solve_fixpoint(contraction(), b, options);
  const std::vector<double> expect = exact_fixpoint();
  EXPECT_NEAR(x[0], expect[0], 1e-10);
  EXPECT_NEAR(x[1], expect[1], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SolveFixpointMethods,
                         ::testing::Values(LinearMethod::kGaussSeidel,
                                           LinearMethod::kBicgstab));

TEST(SolveFixpoint, BicgstabHandlesZeroRhs) {
  SolverOptions options;
  options.method = LinearMethod::kBicgstab;
  const std::vector<double> zero{0.0, 0.0};
  const std::vector<double> x = solve_fixpoint(contraction(), zero, options);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.0);
}

TEST(SolveFixpoint, BicgstabMatchesGaussSeidelOnLargerSystem) {
  // Random-ish substochastic matrix: x = Ax + b.
  const std::size_t n = 60;
  CsrBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, (i + 1) % n, 0.4);
    builder.add(i, (i * 7 + 3) % n, 0.3);
  }
  const CsrMatrix a = builder.build();
  std::vector<double> b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) b[i] = 0.01 * static_cast<double>(i);
  SolverOptions krylov;
  krylov.method = LinearMethod::kBicgstab;
  SolverOptions stationary;
  stationary.method = LinearMethod::kGaussSeidel;
  const auto x1 = solve_fixpoint(a, b, krylov);
  const auto x2 = solve_fixpoint(a, b, stationary);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-8);
}

TEST(SolveFixpoint, ZeroMatrixReturnsRhs) {
  const CsrMatrix a(3, 3);
  const std::vector<double> b{1.0, 2.0, 3.0};
  EXPECT_EQ(solve_fixpoint(a, b), b);
}

TEST(SolveFixpoint, EmptySystem) {
  const CsrMatrix a(0, 0);
  EXPECT_TRUE(solve_fixpoint(a, {}).empty());
}

TEST(SolveFixpoint, RectangularThrows) {
  const CsrMatrix a(2, 3);
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW((void)solve_fixpoint(a, b), ModelError);
}

TEST(SolveFixpoint, UnitDiagonalThrows) {
  CsrBuilder a(1, 1);
  a.add(0, 0, 1.0);
  const std::vector<double> b{1.0};
  EXPECT_THROW((void)solve_fixpoint(a.build(), b), NumericalError);
}

TEST(SolveFixpoint, IterationLimitThrows) {
  SolverOptions options;
  options.max_iterations = 1;
  options.tolerance = 1e-16;
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW((void)solve_fixpoint(contraction(), b, options), NumericalError);
}

TEST(PowerStationary, TwoStateChain) {
  // P = [[0.5, 0.5], [0.25, 0.75]] has stationary (1/3, 2/3).
  CsrBuilder b(2, 2);
  b.add(0, 0, 0.5);
  b.add(0, 1, 0.5);
  b.add(1, 0, 0.25);
  b.add(1, 1, 0.75);
  const std::vector<double> pi = power_stationary(b.build());
  EXPECT_NEAR(pi[0], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(pi[1], 2.0 / 3.0, 1e-9);
}

TEST(PowerStationary, SymmetricRing) {
  // Doubly stochastic => uniform stationary distribution.
  const std::size_t n = 5;
  CsrBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, (i + 1) % n, 0.5);
    b.add(i, i, 0.5);
  }
  const std::vector<double> pi = power_stationary(b.build());
  for (double v : pi) EXPECT_NEAR(v, 0.2, 1e-9);
}

TEST(PowerStationary, EmptyThrows) {
  EXPECT_THROW((void)power_stationary(CsrMatrix(0, 0)), ModelError);
}

}  // namespace
}  // namespace csrl
