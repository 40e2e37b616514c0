#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.hpp"

namespace gs::util {

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi), counts_(bins, 0) {
  GS_CHECK(bins >= 1);
  GS_CHECK(lo < hi);
}

void Histogram::add(double x) noexcept { add_n(x, 1); }

void Histogram::add_n(double x, std::size_t n) noexcept {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto bin = static_cast<std::ptrdiff_t>(std::floor((x - lo_) / width));
  bin = std::clamp<std::ptrdiff_t>(bin, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(bin)] += n;
  total_ += n;
}

double Histogram::bin_lo(std::size_t bin) const {
  GS_CHECK(bin < counts_.size());
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const {
  GS_CHECK(bin < counts_.size());
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bin + 1);
}

std::string Histogram::render(std::size_t width) const {
  std::ostringstream out;
  const std::size_t peak = counts_.empty() ? 0 : *std::max_element(counts_.begin(), counts_.end());
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const std::size_t bar =
        peak == 0 ? 0 : counts_[b] * width / peak;
    out << "[" << bin_lo(b) << ", " << bin_hi(b) << ") " << std::string(bar, '#') << " "
        << counts_[b] << "\n";
  }
  return out.str();
}

}  // namespace gs::util
