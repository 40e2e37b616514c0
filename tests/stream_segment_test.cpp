// Session bookkeeping, SwitchMetrics helpers.
#include <gtest/gtest.h>

#include "stream/metrics.hpp"
#include "stream/segment.hpp"

namespace gs::stream {
namespace {

TEST(Session, LifecycleFlags) {
  Session s;
  EXPECT_FALSE(s.started());
  EXPECT_FALSE(s.ended());
  s.first = 10;
  EXPECT_TRUE(s.started());
  EXPECT_FALSE(s.ended());
  s.last = 19;
  EXPECT_TRUE(s.ended());
}

TEST(SwitchMetrics, Averages) {
  SwitchMetrics m;
  m.tracked = 3;
  m.finish_times = {2.0, 4.0};
  m.prepared_times = {10.0, 20.0, 30.0};
  m.finished_s1 = 2;
  m.prepared_s2 = 3;
  EXPECT_DOUBLE_EQ(m.avg_finish_time(), 3.0);
  EXPECT_DOUBLE_EQ(m.avg_prepared_time(), 20.0);
  EXPECT_DOUBLE_EQ(m.max_prepared_time(), 30.0);
  EXPECT_DOUBLE_EQ(m.max_finish_time(), 4.0);
  EXPECT_NEAR(m.completion_fraction(), 2.0 / 3.0, 1e-12);
  EXPECT_FALSE(m.to_string().empty());
}

TEST(SwitchMetrics, EmptySafe) {
  SwitchMetrics m;
  EXPECT_EQ(m.avg_finish_time(), 0.0);
  EXPECT_EQ(m.avg_prepared_time(), 0.0);
  EXPECT_EQ(m.completion_fraction(), 1.0);
}

TEST(ReductionRatio, PaperDefinition) {
  EXPECT_NEAR(reduction_ratio(20.0, 15.0), 0.25, 1e-12);
  EXPECT_EQ(reduction_ratio(0.0, 5.0), 0.0);
  EXPECT_LT(reduction_ratio(10.0, 12.0), 0.0) << "fast slower -> negative";
}

}  // namespace
}  // namespace gs::stream
