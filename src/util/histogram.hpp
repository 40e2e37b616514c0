// Fixed-width histogram for time/latency distributions in reports.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace gs::util {

/// Uniform-bin histogram over [lo, hi); out-of-range samples are clamped to
/// the edge bins so no sample is silently dropped.
class Histogram {
 public:
  /// Requires bins >= 1 and lo < hi.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  void add_n(double x, std::size_t n) noexcept;

  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  /// Inclusive lower edge of a bin.
  [[nodiscard]] double bin_lo(std::size_t bin) const;
  [[nodiscard]] double bin_hi(std::size_t bin) const;

  /// ASCII rendering (one row per bin) for example programs.
  [[nodiscard]] std::string render(std::size_t width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace gs::util
