// Order statistics used to summarise repeated timings.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/// Median; 0 for an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Quartiles Q1, Q2, Q3 by the "exclusive" method of Python's
/// statistics.quantiles(data, n=4), so the benchmark's own spread figures
/// match the acceptance rule computed from its output. Needs >= 2 values;
/// a single value is returned for all three.
inline std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.empty()) return {0, 0, 0};
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 1) return {v[0], v[0], v[0]};
  std::array<double, 3> q{};
  const long m = ld + 1;
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4;
  }
  return q;
}

/// Median of times[i] / probes[i] * ref: each time scaled to a host on
/// which the probe that ran around it takes `ref`.
inline double scaled_median(const std::vector<double>& times,
                            const std::vector<double>& probes, double ref) {
  std::vector<double> r(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    r[i] = times[i] / probes[i] * ref;
  }
  return median(std::move(r));
}

/// Interquartile range as a share of the median (0 when the median is 0).
inline double iqr_share(const std::vector<double>& v) {
  const auto q = quartiles(v);
  const double med = median(v);
  return med == 0 ? 0 : (q[2] - q[0]) / med;
}

}  // namespace perfbench
