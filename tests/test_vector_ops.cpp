#include "matrix/vector_ops.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace csrl {
namespace {

TEST(VectorOps, Dot) {
  std::vector<double> a{1.0, 2.0, 3.0};
  std::vector<double> b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 12.0);
}

TEST(VectorOps, DotLengthMismatchThrows) {
  std::vector<double> a{1.0};
  std::vector<double> b{1.0, 2.0};
  EXPECT_THROW((void)dot(a, b), ModelError);
}

TEST(VectorOps, Axpy) {
  std::vector<double> x{1.0, 2.0};
  std::vector<double> y{10.0, 20.0};
  axpy(3.0, x, y);
  EXPECT_EQ(y, (std::vector<double>{13.0, 26.0}));
}

TEST(VectorOps, Scale) {
  std::vector<double> x{1.0, -2.0};
  scale(x, -0.5);
  EXPECT_EQ(x, (std::vector<double>{-0.5, 1.0}));
}

TEST(VectorOps, SumsAndNorms) {
  std::vector<double> x{1.0, -2.0, 3.0};
  EXPECT_DOUBLE_EQ(sum(x), 2.0);
  EXPECT_DOUBLE_EQ(norm_inf(x), 3.0);
}

TEST(VectorOps, MaxAbsDiff) {
  std::vector<double> a{1.0, 5.0};
  std::vector<double> b{1.5, 4.0};
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 1.0);
}

TEST(VectorOps, NormaliseL1) {
  std::vector<double> x{1.0, 3.0};
  normalise_l1(x);
  EXPECT_DOUBLE_EQ(x[0], 0.25);
  EXPECT_DOUBLE_EQ(x[1], 0.75);
}

TEST(VectorOps, NormaliseZeroVectorThrows) {
  std::vector<double> x{0.0, 0.0};
  EXPECT_THROW(normalise_l1(x), NumericalError);
}

TEST(VectorOps, Zeros) {
  EXPECT_EQ(zeros(3), (std::vector<double>{0.0, 0.0, 0.0}));
  EXPECT_TRUE(zeros(0).empty());
}

}  // namespace
}  // namespace csrl
