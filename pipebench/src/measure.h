// The benchmark's arithmetic: medians and quartiles of repeated
// measurements, span self time, and the failure ratio with its base. Pure
// functions over plain values, so tests/pipebench_test.cc pins each one.

#ifndef PIPEBENCH_MEASURE_H_
#define PIPEBENCH_MEASURE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>
#include <vector>

namespace pipebench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty list.
inline double
Median(std::vector<double> values)
{
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// First, second and third quartile, computed exactly as Python's
/// statistics.quantiles(values, n=4) (the default "exclusive" method), so
/// the quartiles printed on stderr match what Python computes from the
/// same values. Needs at least one value.
inline std::array<double, 3>
Quartiles(std::vector<double> values)
{
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  if (ld == 1) return {values[0], values[0], values[0]};
  const long m = ld + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                  values[j] * static_cast<double>(delta)) /
                 4;
  }
  return out;
}

/// A span's self time: its duration minus the part of [start, end] that
/// the union of its children's intervals covers. Children may overlap one
/// another (parallel workers) and may stick out of the parent; only the
/// covered part inside the parent counts.
inline double
SelfTime(double start, double end,
         std::vector<std::pair<double, double>> children)
{
  if (end <= start) return 0;
  std::sort(children.begin(), children.end());
  double covered = 0;
  double cursor = start;
  for (const auto& [cs, ce] : children) {
    const double s = std::max(cs, cursor);
    const double e = std::min(ce, end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return (end - start) - covered;
}

/// Operations a run attempted and how many of them failed.
struct OpCount {
  long attempted = 0;
  long failed = 0;

  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// failed / attempted (0 when nothing was attempted).
  double FailRatio() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0;
  }
  /// 1 - FailRatio(): the reported end-to-end form, which is never 0 on
  /// a healthy run.
  double OkRatio() const { return attempted > 0 ? 1 - FailRatio() : 0; }
};

}  // namespace pipebench

#endif  // PIPEBENCH_MEASURE_H_
