// Dense vector helpers shared by the numerical procedures.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace csrl {

/// Dot product; spans must have equal length.
double dot(std::span<const double> a, std::span<const double> b);

/// y += alpha * x; spans must have equal length.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// x *= alpha.
void scale(std::span<double> x, double alpha);

/// Sum of all entries.
double sum(std::span<const double> x);

/// Maximum absolute value.
double norm_inf(std::span<const double> x);

/// max_i |a_i - b_i|; spans must have equal length.
double max_abs_diff(std::span<const double> a, std::span<const double> b);

/// Rescale a non-negative vector so its entries sum to 1.
/// Throws NumericalError if the sum is not positive.
void normalise_l1(std::span<double> x);

/// Convenience: a vector of `n` zeros (names the intent at call sites).
std::vector<double> zeros(std::size_t n);

}  // namespace csrl
