// Direct unit tests for PeerNode's node-local bookkeeping (previously only
// covered indirectly through whole-engine runs): the received set, the
// startup run, pending-request pruning and the next_missing helper.
#include <gtest/gtest.h>

#include "stream/peer_node.hpp"

namespace gs::stream {
namespace {

TEST(PeerNode, MarkReceivedGrowsSetAndFillsBuffer) {
  PeerNode p;
  EXPECT_FALSE(p.has_received(0));
  EXPECT_TRUE(p.mark_received(0));
  EXPECT_TRUE(p.mark_received(5000));  // far beyond the initial bitset size
  EXPECT_TRUE(p.has_received(0));
  EXPECT_TRUE(p.has_received(5000));
  EXPECT_FALSE(p.has_received(4999));
  EXPECT_TRUE(p.buffer.contains(5000));
}

TEST(PeerNode, MarkReceivedRejectsDuplicates) {
  PeerNode p;
  EXPECT_TRUE(p.mark_received(42));
  EXPECT_FALSE(p.mark_received(42));
}

TEST(PeerNode, HasReceivedHandlesOutOfRangeIds) {
  PeerNode p;
  p.mark_received(3);
  EXPECT_FALSE(p.has_received(kNoSegment));  // negative sentinel
  EXPECT_FALSE(p.has_received(1'000'000));   // beyond the bitset
}

TEST(PeerNode, CountMissingCountsGapsInclusively) {
  PeerNode p;
  for (const SegmentId id : {10, 11, 13, 15}) p.mark_received(id);
  EXPECT_EQ(p.count_missing(10, 15), 2u);  // 12 and 14
  EXPECT_EQ(p.count_missing(0, 9), 10u);
  EXPECT_EQ(p.count_missing(10, 11), 0u);
  EXPECT_EQ(p.count_missing(20, 10), 0u) << "empty range";
  EXPECT_EQ(p.count_missing(14, 200), 186u) << "ids past the bitset are missing";
}

TEST(PeerNode, NextMissingSkipsReceivedRuns) {
  PeerNode p;
  for (SegmentId id = 0; id < 8; ++id) p.mark_received(id);
  p.mark_received(9);
  EXPECT_EQ(next_missing(p.received, 0), 8);
  EXPECT_EQ(next_missing(p.received, 8), 8);
  EXPECT_EQ(next_missing(p.received, 9), 10);
  // From beyond the bitset, everything is implicitly clear.
  EXPECT_EQ(next_missing(p.received, 1'000'000), 1'000'000);
}

TEST(PeerNode, ExtendStartRunFollowsContiguousPrefix) {
  PeerNode p;
  p.start_id = 100;
  for (const SegmentId id : {100, 101, 102, 104}) p.mark_received(id);
  p.extend_start_run();
  EXPECT_EQ(p.start_run, 3u) << "run stops at the 103 gap";
  p.mark_received(103);
  p.extend_start_run();
  EXPECT_EQ(p.start_run, 5u) << "filling the gap extends through 104";
}

TEST(PeerNode, PrunePendingDropsOnlyExpiredEntries) {
  PeerNode p;
  p.pending.set(1, 5.0);  // retry-eligible at t=5
  p.pending.set(2, 10.0);
  p.pending.set(3, 7.5);
  p.prune_pending(7.5);
  EXPECT_EQ(p.pending.size(), 1u);
  EXPECT_TRUE(p.pending.contains(2));
  p.prune_pending(10.0);
  EXPECT_TRUE(p.pending.empty());
}

TEST(PeerNode, PreloadIsIdempotentAvailabilityOnly) {
  PeerNode p;
  p.preload(7);
  p.preload(7);
  EXPECT_TRUE(p.has_received(7));
  EXPECT_EQ(p.duplicates_received, 0u) << "preload is not a wire delivery";
  EXPECT_FALSE(p.playback.started());
}

// A joiner is a default-constructed node that init_peer_state then fills in
// (id, rates, budget, buffer, playback, rng), so every other field must
// already hold the joiner's state: alive, no switch, no boundary, zeroes.
TEST(PeerNode, DefaultsMatchDispatchExpectations) {
  PeerNode p;
  EXPECT_EQ(p.tick_group, kNoTickGroup);
  EXPECT_FALSE(p.is_source);
  EXPECT_TRUE(p.alive);
  EXPECT_EQ(p.outbound_rate, 0.0);
  EXPECT_EQ(p.in_budget.rate(), 0.0);
  EXPECT_EQ(p.in_budget.available(), 0.0);
  EXPECT_EQ(p.start_id, 0);
  EXPECT_EQ(p.start_run, 0u);
  EXPECT_EQ(p.known_boundary, -1);
  EXPECT_EQ(p.active_switch, -1);
  EXPECT_EQ(p.q1_missing, 0u);
  EXPECT_EQ(p.q2_missing, 0u);
  EXPECT_EQ(p.q0_at_switch, 0u);
  EXPECT_EQ(p.sw_lo, 0);
  EXPECT_FALSE(p.sw_finished);
  EXPECT_FALSE(p.sw_prepared);
  EXPECT_FALSE(p.tracked);
  EXPECT_FALSE(p.gate_armed);
}

}  // namespace
}  // namespace gs::stream
