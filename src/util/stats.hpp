// Streaming and batch statistics used by the metrics collectors and the
// figure reporters.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace gs::util {

/// Welford online mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x) noexcept;
  void reset() noexcept { *this = RunningStats(); }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// Mean of the samples; 0 when empty.
  [[nodiscard]] double mean() const noexcept { return count_ == 0 ? 0.0 : mean_; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// +inf when empty, mirroring the identity of min.
  [[nodiscard]] double min() const noexcept { return min_; }
  /// -inf when empty.
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Linear-interpolation percentile of an unsorted sample (copies + sorts).
/// q is in [0, 1].  Returns NaN for empty input.
[[nodiscard]] double percentile(std::span<const double> values, double q);

/// Batch summary of a sample: n, mean, stddev, min, p50, p90, max.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double max = 0.0;

  [[nodiscard]] static Summary of(std::span<const double> values);
  [[nodiscard]] std::string to_string() const;
};

/// 95% confidence half-width assuming normality (1.96 * s / sqrt(n));
/// 0 for fewer than two samples.
[[nodiscard]] double ci95_halfwidth(std::span<const double> values);

}  // namespace gs::util
