#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace gs::util {

void RunningStats::add(double x) noexcept {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double percentile(std::span<const double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Summary Summary::of(std::span<const double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  RunningStats rs;
  for (double v : values) rs.add(v);
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.min = rs.min();
  s.max = rs.max();
  s.p50 = percentile(values, 0.50);
  s.p90 = percentile(values, 0.90);
  return s;
}

std::string Summary::to_string() const {
  std::ostringstream out;
  out << "n=" << n << " mean=" << mean << " sd=" << stddev << " min=" << min << " p50=" << p50
      << " p90=" << p90 << " max=" << max;
  return out.str();
}

double ci95_halfwidth(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  RunningStats rs;
  for (double v : values) rs.add(v);
  return 1.96 * rs.stddev() / std::sqrt(static_cast<double>(values.size()));
}

}  // namespace gs::util
