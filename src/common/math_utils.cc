#include "common/math_utils.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace evocat {

double Entropy(const std::vector<double>& probs) {
  double total = 0.0;
  for (double p : probs) total += p;
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (double p : probs) {
    if (p <= 0.0) continue;
    double q = p / total;
    h -= q * std::log2(q);
  }
  return h;
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double m = Mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) { return std::sqrt(Variance(xs)); }

double Min(const std::vector<double>& xs) {
  double m = std::numeric_limits<double>::infinity();
  for (double x : xs) m = std::min(m, x);
  return m;
}

double Max(const std::vector<double>& xs) {
  double m = -std::numeric_limits<double>::infinity();
  for (double x : xs) m = std::max(m, x);
  return m;
}

double Percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  q = Clamp(q, 0.0, 100.0);
  double pos = q / 100.0 * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double Clamp(double x, double lo, double hi) {
  return std::max(lo, std::min(hi, x));
}

double XLogX(double x) { return x <= 0.0 ? 0.0 : x * std::log2(x); }

bool NearlyEqual(double a, double b, double tol) {
  return std::fabs(a - b) <= tol;
}

}  // namespace evocat
