#ifndef RANKJOIN_PERFBENCH_STATS_H_
#define RANKJOIN_PERFBENCH_STATS_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

namespace rankjoin::perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 when empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (method "exclusive"), so the
/// spreads this program prints match the ones computed over its results.
/// Needs at least two values; a single value is returned three times and
/// an empty input gives zeros.
inline std::array<double, 3> Quartiles(std::vector<double> values) {
  const size_t n = values.size();
  if (n == 0) return {0.0, 0.0, 0.0};
  if (n == 1) return {values[0], values[0], values[0]};
  std::sort(values.begin(), values.end());
  std::array<double, 3> result{};
  const size_t m = n + 1;
  for (size_t i = 1; i <= 3; ++i) {
    size_t j = i * m / 4;
    j = std::clamp<size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    result[i - 1] = (values[j - 1] * (4 - delta) + values[j] * delta) / 4;
  }
  return result;
}

/// Nearest-rank percentile: the smallest value with at least `p` percent
/// of the values at or below it. 0 when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace rankjoin::perfbench

#endif  // RANKJOIN_PERFBENCH_STATS_H_
