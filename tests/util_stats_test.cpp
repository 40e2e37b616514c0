// RunningStats, percentiles, summaries, histogram.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace gs::util {
namespace {

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 denominator: sum sq dev = 32, / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Percentile, EmptyIsNaN) {
  EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
}

TEST(Percentile, MedianAndExtremes) {
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.5);
}

TEST(Summary, OfSample) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const Summary s = Summary::of(v);
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.p50, 2.5);
  EXPECT_FALSE(s.to_string().empty());
}

TEST(Ci95, ZeroForSmallSamples) {
  EXPECT_EQ(ci95_halfwidth({}), 0.0);
  const std::vector<double> one{1.0};
  EXPECT_EQ(ci95_halfwidth(one), 0.0);
}

TEST(Ci95, KnownValue) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  // sd = sqrt(2.5), n = 5.
  EXPECT_NEAR(ci95_halfwidth(v), 1.96 * std::sqrt(2.5) / std::sqrt(5.0), 1e-12);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(-5.0);   // clamped to bin 0
  h.add(42.0);   // clamped to bin 9
  EXPECT_EQ(h.total(), 4u);
  // One row per bin: "[lo, hi) <bar> count", bars scaled to the peak bin.
  const std::string rows = h.render(4);
  EXPECT_NE(rows.find("[0, 1) #### 2\n"), std::string::npos) << rows;
  EXPECT_NE(rows.find("[1, 2)  0\n"), std::string::npos) << rows;
  EXPECT_NE(rows.find("[9, 10) #### 2\n"), std::string::npos) << rows;
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

TEST(Histogram, RenderDoesNotCrashOnEmpty) {
  Histogram h(0.0, 1.0, 3);
  EXPECT_FALSE(h.render().empty());
}

}  // namespace
}  // namespace gs::util
