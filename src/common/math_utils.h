/// \file math_utils.h
/// \brief Small numeric kernels shared by the metric implementations.

#ifndef EVOCAT_COMMON_MATH_UTILS_H_
#define EVOCAT_COMMON_MATH_UTILS_H_

#include <cstddef>
#include <vector>

namespace evocat {

/// \brief Shannon entropy (bits) of a discrete distribution.
///
/// `probs` need not be normalized; zero entries are skipped. Returns 0 for an
/// empty or all-zero input.
double Entropy(const std::vector<double>& probs);

/// \brief Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& xs);

/// \brief Population variance; 0 for fewer than two elements.
double Variance(const std::vector<double>& xs);

/// \brief Population standard deviation.
double StdDev(const std::vector<double>& xs);

/// \brief Minimum; +inf for empty input.
double Min(const std::vector<double>& xs);

/// \brief Maximum; -inf for empty input.
double Max(const std::vector<double>& xs);

/// \brief Linear-interpolated percentile `q` in [0, 100]; 0 for empty input.
double Percentile(std::vector<double> xs, double q);

/// \brief Clamps `x` into [lo, hi].
double Clamp(double x, double lo, double hi);

/// \brief x * log2(x) with the 0 * log 0 = 0 convention.
double XLogX(double x);

/// \brief True when |a - b| <= tol.
bool NearlyEqual(double a, double b, double tol = 1e-9);

}  // namespace evocat

#endif  // EVOCAT_COMMON_MATH_UTILS_H_
