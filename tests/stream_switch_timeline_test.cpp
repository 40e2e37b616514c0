// Direct unit tests for SwitchTimeline's session/boundary bookkeeping
// (previously only covered indirectly through whole-engine runs).
#include <gtest/gtest.h>

#include <vector>

#include "stream/switch_timeline.hpp"

namespace gs::stream {
namespace {

SwitchTimeline two_switch_timeline() {
  SwitchTimeline timeline;
  timeline.set_sources(10, {0, 1, 2}, {0.0, 60.0});
  return timeline;
}

TEST(SwitchTimeline, SetSourcesBuildsSessionsAndMetricRows) {
  SwitchTimeline timeline = two_switch_timeline();
  EXPECT_TRUE(timeline.configured());
  ASSERT_EQ(timeline.session_count(), 3u);
  EXPECT_EQ(timeline.switch_count(), 2u);
  EXPECT_EQ(timeline.session(0).source, 0u);
  EXPECT_EQ(timeline.session(2).source, 2u);
  EXPECT_FALSE(timeline.session(0).started());
  EXPECT_EQ(timeline.current_switch(), -1);
  ASSERT_EQ(timeline.results().size(), 2u);
  EXPECT_EQ(timeline.results()[1].switch_index, 1);
  EXPECT_DOUBLE_EQ(timeline.results()[1].switch_time, 60.0);
}

TEST(SwitchTimeline, BeginSwitchEndsSessionAndIndexesBoundary) {
  SwitchTimeline timeline = two_switch_timeline();
  timeline.session(0).first = 0;
  timeline.begin_switch(0, 0.25, 99);
  EXPECT_EQ(timeline.current_switch(), 0);
  EXPECT_TRUE(timeline.session(0).ended());
  EXPECT_EQ(timeline.session(0).last, 99);
  EXPECT_EQ(timeline.switch_ending_at(99), 0);
  EXPECT_EQ(timeline.switch_ending_at(98), -1);
  EXPECT_DOUBLE_EQ(timeline.metrics(0).switch_time, 0.25);
}

TEST(SwitchTimeline, RequiredPrefixClampsToShortFinalSession) {
  SwitchTimeline timeline = two_switch_timeline();
  timeline.session(0).first = 0;
  timeline.begin_switch(0, 0.0, 99);
  // Session 1 still streaming: the full Qs is required.
  EXPECT_EQ(timeline.required_prefix(0, 50), 50u);
  // Session 1 ended after only 20 segments: the prefix clamps.
  timeline.session(1).first = 100;
  timeline.begin_switch(1, 60.0, 119);
  EXPECT_EQ(timeline.required_prefix(0, 50), 20u);
}

TEST(SwitchTimeline, InitSwitchCountersComputesQ1Q2FromReceivedSet) {
  SwitchTimeline timeline = two_switch_timeline();
  timeline.session(0).first = 0;
  timeline.begin_switch(0, 0.0, 49);

  PeerNode p;
  p.start_id = 10;
  for (SegmentId id = 10; id < 30; ++id) p.preload(id);  // 30..49 missing
  p.preload(52);                                          // one S2 segment
  timeline.init_switch_counters(p, 0, 0.0, /*q_startup=*/10);
  EXPECT_EQ(p.active_switch, 0);
  EXPECT_EQ(p.sw_lo, 10);
  EXPECT_EQ(p.q1_missing, 20u);
  EXPECT_EQ(p.q0_at_switch, 20u);
  EXPECT_EQ(p.q2_missing, 9u) << "prefix 50..59 minus the received 52";
  EXPECT_FALSE(p.sw_finished);
  EXPECT_FALSE(p.sw_prepared);
  EXPECT_FALSE(p.gate_armed);
}

TEST(SwitchTimeline, InitSwitchCountersReleasesStaleGate) {
  SwitchTimeline timeline = two_switch_timeline();
  timeline.session(0).first = 0;
  timeline.begin_switch(0, 0.0, 49);

  PeerNode p;
  p.playback = Playback(10.0);
  p.playback.start(0, 0.0);
  p.playback.set_gate(40);
  p.gate_armed = true;
  timeline.init_switch_counters(p, 0, 1.0, 10);
  EXPECT_EQ(p.playback.gate(), kNoSegment) << "stale gate released";
}

TEST(SwitchTimeline, CensorStaleCountsOnlyUnfinishedEarlierSwitches) {
  SwitchTimeline timeline = two_switch_timeline();
  timeline.session(0).first = 0;
  timeline.begin_switch(0, 0.0, 49);

  PeerNode p;
  p.tracked = true;
  p.active_switch = 0;
  p.sw_finished = true;
  p.sw_prepared = false;
  timeline.censor_stale(p, 1);
  EXPECT_EQ(timeline.metrics(0).censored_finish, 0u);
  EXPECT_EQ(timeline.metrics(0).censored_prepare, 1u);
  // A peer already on the new switch is not censored again.
  p.active_switch = 1;
  timeline.censor_stale(p, 1);
  EXPECT_EQ(timeline.metrics(0).censored_prepare, 1u);
}

TEST(SwitchTimeline, ExperimentCompleteRequiresLastSwitchClosed) {
  SwitchTimeline timeline = two_switch_timeline();
  timeline.session(0).first = 0;
  EXPECT_FALSE(timeline.experiment_complete());

  timeline.begin_switch(0, 0.0, 49);
  timeline.metrics(0).tracked = 2;
  timeline.metrics(0).finished_s1 = 2;
  timeline.metrics(0).prepared_s2 = 2;
  EXPECT_TRUE(timeline.switch_closed(0));
  EXPECT_FALSE(timeline.experiment_complete()) << "switch 1 has not fired";

  timeline.session(1).first = 50;
  timeline.begin_switch(1, 60.0, 119);
  timeline.metrics(1).tracked = 2;
  timeline.metrics(1).finished_s1 = 1;
  timeline.metrics(1).censored_finish = 1;
  timeline.metrics(1).prepared_s2 = 1;
  EXPECT_FALSE(timeline.experiment_complete());
  timeline.metrics(1).censored_prepare = 1;
  EXPECT_TRUE(timeline.experiment_complete()) << "censoring closes the books too";
}

TEST(SwitchTimeline, SampleTracksAveragesTrackedPeers) {
  SwitchTimeline timeline = two_switch_timeline();
  timeline.session(0).first = 0;
  timeline.begin_switch(0, 0.0, 49);
  timeline.metrics(0).tracked = 2;

  std::vector<PeerNode> peers(3);
  for (std::size_t i = 0; i < 2; ++i) {
    PeerNode& p = peers[i];
    p.tracked = true;
    p.active_switch = 0;
    p.q0_at_switch = 10;
  }
  peers[0].q1_missing = 5;   // half drained
  peers[0].q2_missing = 10;  // nothing of S2 yet
  peers[1].q1_missing = 0;   // done with S1
  peers[1].q2_missing = 0;   // fully prepared
  peers[2].tracked = false;  // must be ignored

  timeline.sample_tracks(2.0, peers, /*q_startup=*/10);
  ASSERT_EQ(timeline.metrics(0).track.size(), 1u);
  const TrackPoint& point = timeline.metrics(0).track.front();
  EXPECT_DOUBLE_EQ(point.time, 2.0);
  EXPECT_EQ(point.live_tracked, 2u);
  EXPECT_DOUBLE_EQ(point.undelivered_ratio_s1, 0.25);  // mean of 0.5 and 0.0
  EXPECT_DOUBLE_EQ(point.delivered_ratio_s2, 0.5);     // mean of 0.0 and 1.0
}

TEST(SwitchTimeline, CensorUnfinishedClosesTheBooksAtHorizon) {
  SwitchTimeline timeline = two_switch_timeline();
  timeline.session(0).first = 0;
  timeline.begin_switch(0, 0.0, 49);

  std::vector<PeerNode> peers(2);
  peers[0].tracked = true;
  peers[0].active_switch = 0;
  peers[0].sw_finished = true;   // finished but never prepared
  peers[1].tracked = false;      // untracked: ignored
  timeline.censor_unfinished(peers);
  EXPECT_EQ(timeline.metrics(0).censored_finish, 0u);
  EXPECT_EQ(timeline.metrics(0).censored_prepare, 1u);
}

}  // namespace
}  // namespace gs::stream
