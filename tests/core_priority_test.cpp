// Priority model (eqs. 6-9) and Algorithm 1's greedy supplier selection.
#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "core/priority.hpp"
#include "core/supplier_selection.hpp"

namespace gs::core {
namespace {

using stream::CandidateSegment;
using stream::ScheduleContext;
using stream::StreamEpoch;
using stream::SupplierView;

SupplierView supplier(net::NodeId node, double rate, std::size_t position,
                      double queue = 0.0) {
  SupplierView s;
  s.node = node;
  s.send_rate = rate;
  s.buffer_position = position;
  s.queue_delay = queue;
  return s;
}

/// greedy_assign over `candidates` in list order, candidate i carrying
/// priorities[i].
std::vector<Assignment> assign(const ScheduleContext& ctx,
                               const std::vector<CandidateSegment>& candidates,
                               std::vector<double> priorities) {
  ScheduleScratch scratch;
  scratch.priorities = std::move(priorities);
  scratch.order.resize(candidates.size());
  std::iota(scratch.order.begin(), scratch.order.end(), 0u);
  greedy_assign(ctx, candidates, scratch);
  return scratch.assignments;
}

ScheduleContext basic_ctx() {
  ScheduleContext ctx;
  ctx.period = 1.0;
  ctx.playback_rate = 10.0;
  ctx.inbound_rate = 15.0;
  ctx.id_play = 100;
  ctx.buffer_capacity = 600;
  ctx.max_requests = 15;
  return ctx;
}

TEST(Priority, MaxReceiveRate) {
  std::vector<SupplierView> suppliers{supplier(1, 10.0, 5), supplier(2, 25.0, 5),
                                      supplier(3, 15.0, 5)};
  EXPECT_DOUBLE_EQ(max_receive_rate(suppliers), 25.0);
  EXPECT_DOUBLE_EQ(max_receive_rate({}), 0.0);
}

TEST(Priority, UrgencyFormula) {
  // eq. 7: t_i = (id_i - id_play)/p - 1/R_i; urgency = 1/t_i.
  PriorityParams params;
  // id 120 vs play 100 at p=10: deadline in 2.0s minus 0.1s transfer = 1.9.
  EXPECT_NEAR(urgency(120, 100, 10.0, 10.0, params), 1.0 / 1.9, 1e-12);
}

TEST(Priority, UrgencyMonotoneInDistance) {
  PriorityParams params;
  double last = 1e18;
  for (stream::SegmentId id = 101; id < 200; id += 7) {
    const double u = urgency(id, 100, 10.0, 20.0, params);
    EXPECT_LT(u, last) << "closer deadlines must be more urgent";
    last = u;
  }
}

TEST(Priority, OverdueClampsToCap) {
  PriorityParams params;
  params.urgency_cap = 500.0;
  // Deadline already passed: id == id_play.
  EXPECT_DOUBLE_EQ(urgency(100, 100, 10.0, 10.0, params), 500.0);
  // Slow supplier pushes t_i negative.
  EXPECT_DOUBLE_EQ(urgency(101, 100, 10.0, 1.0, params), 500.0);
}

TEST(Priority, UnobtainableSegmentHasZeroUrgency) {
  PriorityParams params;
  EXPECT_DOUBLE_EQ(urgency(120, 100, 10.0, 0.0, params), 0.0);
}

TEST(Priority, RarityProductOfPositions) {
  // eq. 8: product over suppliers of p_ij / B.
  PriorityParams params;
  std::vector<SupplierView> suppliers{supplier(1, 10.0, 300), supplier(2, 10.0, 150)};
  EXPECT_NEAR(rarity(suppliers, 600, params), (300.0 / 600.0) * (150.0 / 600.0), 1e-12);
}

TEST(Priority, RarityOldSegmentsHigher) {
  // A segment deep in every supplier's buffer (about to be replaced) must
  // out-rank a freshly inserted one.
  PriorityParams params;
  std::vector<SupplierView> old_seg{supplier(1, 10.0, 590)};
  std::vector<SupplierView> fresh_seg{supplier(1, 10.0, 3)};
  EXPECT_GT(rarity(old_seg, 600, params), rarity(fresh_seg, 600, params));
}

TEST(Priority, TraditionalRarityAblation) {
  PriorityParams params;
  params.traditional_rarity = true;
  std::vector<SupplierView> two{supplier(1, 10.0, 10), supplier(2, 10.0, 10)};
  std::vector<SupplierView> four{supplier(1, 10.0, 10), supplier(2, 10.0, 10),
                                 supplier(3, 10.0, 10), supplier(4, 10.0, 10)};
  EXPECT_DOUBLE_EQ(rarity(two, 600, params), 0.5);
  EXPECT_DOUBLE_EQ(rarity(four, 600, params), 0.25);
}

TEST(Priority, CombinedIsMaxOfUrgencyAndRarity) {
  // eq. 9.
  PriorityParams params;
  ScheduleContext ctx = basic_ctx();
  CandidateSegment near_deadline;
  near_deadline.id = 101;
  near_deadline.suppliers = {supplier(1, 10.0, 3)};
  CandidateSegment far_but_rare;
  far_but_rare.id = 500;
  far_but_rare.suppliers = {supplier(1, 10.0, 580)};
  const double p_near = segment_priority(near_deadline, ctx, params);
  const double p_far = segment_priority(far_but_rare, ctx, params);
  // Near-deadline beats on urgency; far one is carried by rarity.
  EXPECT_GT(p_near, p_far);
  EXPECT_GT(p_far, 0.5) << "rarity (580/600) dominates its tiny urgency";
}

TEST(Priority, ClassesQuantizeByPowersOfTwo) {
  EXPECT_EQ(priority_class(1.0), 0);
  EXPECT_EQ(priority_class(1.5), 0);
  EXPECT_EQ(priority_class(2.0), 1);
  EXPECT_EQ(priority_class(0.5), -1);
  EXPECT_EQ(priority_class(0.49), -2);
  EXPECT_LT(priority_class(0.0), -1000000);
  // Monotone.
  EXPECT_LE(priority_class(0.3), priority_class(0.31));
}

// ------------------------------------------------- Algorithm 1 greedy ----

TEST(GreedyAssign, PicksEarliestSupplier) {
  ScheduleContext ctx = basic_ctx();
  std::vector<CandidateSegment> candidates(1);
  candidates[0].id = 101;
  candidates[0].suppliers = {supplier(1, 10.0, 5), supplier(2, 20.0, 5)};
  const auto assignments = assign(ctx, candidates, {1.0});
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].supplier, 2u) << "1/20 < 1/10";
  EXPECT_NEAR(assignments[0].expected_time, 0.05, 1e-12);
}

TEST(GreedyAssign, QueueAccumulatesPerSupplier) {
  // Two segments, single supplier at R=2: first at 0.5, second at 1.0
  // which is NOT < period -> dropped (paper line 13: t < tau).
  ScheduleContext ctx = basic_ctx();
  std::vector<CandidateSegment> candidates(2);
  candidates[0].id = 101;
  candidates[0].suppliers = {supplier(1, 2.0, 5)};
  candidates[1].id = 102;
  candidates[1].suppliers = {supplier(1, 2.0, 5)};
  const auto assignments = assign(ctx, candidates, {2.0, 1.0});
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].id, 101);
}

TEST(GreedyAssign, SpillsToSecondSupplier) {
  // With the fast supplier backlogged by the first assignment, the second
  // segment should go to the other supplier if that is earlier.
  ScheduleContext ctx = basic_ctx();
  std::vector<CandidateSegment> candidates(2);
  candidates[0].id = 101;
  candidates[0].suppliers = {supplier(1, 4.0, 5), supplier(2, 3.0, 5)};
  candidates[1].id = 102;
  candidates[1].suppliers = {supplier(1, 4.0, 5), supplier(2, 3.0, 5)};
  const auto assignments = assign(ctx, candidates, {2.0, 1.0});
  ASSERT_EQ(assignments.size(), 2u);
  EXPECT_EQ(assignments[0].supplier, 1u);  // 0.25 < 0.333
  EXPECT_EQ(assignments[1].supplier, 2u);  // 0.333 < 0.25 + 0.25
}

TEST(GreedyAssign, InitialQueueDelayRespected) {
  ScheduleContext ctx = basic_ctx();
  std::vector<CandidateSegment> candidates(1);
  candidates[0].id = 101;
  candidates[0].suppliers = {supplier(1, 100.0, 5, /*queue=*/0.99),
                             supplier(2, 2.0, 5, /*queue=*/0.0)};
  const auto assignments = assign(ctx, candidates, {1.0});
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].supplier, 2u) << "0.5 beats 0.99 + 0.01";
}

TEST(GreedyAssign, SkipsSegmentsWithNoFeasibleSupplier) {
  ScheduleContext ctx = basic_ctx();
  std::vector<CandidateSegment> candidates(2);
  candidates[0].id = 101;
  candidates[0].suppliers = {supplier(1, 0.5, 5)};  // transfer 2.0 > period
  candidates[1].id = 102;
  candidates[1].suppliers = {supplier(2, 10.0, 5)};
  const auto assignments = assign(ctx, candidates, {2.0, 1.0});
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].id, 102);
}

TEST(GreedyAssign, EpochCarriedThrough) {
  ScheduleContext ctx = basic_ctx();
  std::vector<CandidateSegment> candidates(2);
  candidates[0].id = 101;
  candidates[0].epoch = StreamEpoch::kOld;
  candidates[0].suppliers = {supplier(1, 10.0, 5)};
  candidates[1].id = 500;
  candidates[1].epoch = StreamEpoch::kNew;
  candidates[1].suppliers = {supplier(2, 10.0, 5)};
  const auto assignments = assign(ctx, candidates, {2.0, 1.0});
  ASSERT_EQ(assignments.size(), 2u);
  EXPECT_EQ(assignments[0].epoch, StreamEpoch::kOld);
  EXPECT_EQ(assignments[1].epoch, StreamEpoch::kNew);
}

TEST(GreedyAssign, CapacityPropertyUnderLoad) {
  // Property: per-supplier assigned transfer time never exceeds the period.
  ScheduleContext ctx = basic_ctx();
  std::vector<CandidateSegment> candidates(100);
  std::vector<double> priorities(100);
  for (int i = 0; i < 100; ++i) {
    candidates[static_cast<std::size_t>(i)].id = 101 + i;
    candidates[static_cast<std::size_t>(i)].suppliers = {supplier(1, 7.0, 5),
                                                         supplier(2, 5.0, 5)};
    priorities[static_cast<std::size_t>(i)] = 100.0 - i;
  }
  const auto assignments = assign(ctx, candidates, priorities);
  double load1 = 0.0;
  double load2 = 0.0;
  for (const auto& a : assignments) {
    (a.supplier == 1 ? load1 : load2) += a.supplier == 1 ? 1.0 / 7.0 : 1.0 / 5.0;
    EXPECT_LT(a.expected_time, ctx.period);
  }
  EXPECT_LE(load1, 1.0 + 1e-9);
  EXPECT_LE(load2, 1.0 + 1e-9);
  // Full utilisation: 7 + 5 = 12 segments fit in one period.
  EXPECT_EQ(assignments.size(), 11u);  // strict '<' boundary drops the 12th
}

}  // namespace
}  // namespace gs::core
