// CdnAssistPlane unit tests: the BURST/HANDOFF/OFF state machine, the
// rest-play pause/resume hysteresis and the capacity-limited patch ledger's
// arrival times.  Engine-level behaviour (eligibility, coverage, the
// served-bytes count, determinism across shard counts) lives in
// stream_determinism_test.
#include <gtest/gtest.h>

#include "stream/cdn_assist.hpp"

namespace gs::stream {
namespace {

struct AssistFixture {
  EngineStats stats;
  CdnAssistPlane plane;

  explicit AssistFixture(CdnAssistConfig config = {}) : plane(config, stats) {
    plane.ensure_nodes(4);
  }
};

CdnAssistPlane::PeerView eligible(int switch_index, double rest_play_s = 0.0,
                                  bool cover = false) {
  CdnAssistPlane::PeerView view;
  view.switch_index = switch_index;
  view.rest_play_s = rest_play_s;
  view.suppliers_cover = cover;
  return view;
}

TEST(CdnAssist, EnrollsEligiblePeerIntoBurst) {
  AssistFixture f;
  EXPECT_EQ(f.plane.state(1), CdnAssistPlane::State::kOff);
  EXPECT_TRUE(f.plane.control(1, eligible(0), 0.0));
  EXPECT_EQ(f.plane.state(1), CdnAssistPlane::State::kBurst);
  EXPECT_EQ(f.stats.cdn_assisted_switches, 1u);
  // Same switch next tick: still the same assist episode.
  EXPECT_TRUE(f.plane.control(1, eligible(0), 0.5));
  EXPECT_EQ(f.stats.cdn_assisted_switches, 1u);
}

TEST(CdnAssist, IneligibleViewExitsAndRecordsAssistTime) {
  AssistFixture f;
  EXPECT_TRUE(f.plane.control(1, eligible(0), 1.0));
  EXPECT_FALSE(f.plane.control(1, CdnAssistPlane::PeerView{}, 3.5));
  EXPECT_EQ(f.plane.state(1), CdnAssistPlane::State::kOff);
  ASSERT_EQ(f.plane.assist_samples(), 1u);
  EXPECT_DOUBLE_EQ(f.plane.mean_assist_s(), 2.5);
}

TEST(CdnAssist, PauseResumeHysteresis) {
  CdnAssistConfig config;
  config.pause_lead_s = 3.0;
  config.resume_lead_s = 1.0;
  AssistFixture f(config);
  EXPECT_TRUE(f.plane.control(2, eligible(0, 0.0), 0.0));
  // Lead reaches the pause threshold: the burst pauses.
  EXPECT_FALSE(f.plane.control(2, eligible(0, 3.2), 0.1));
  EXPECT_TRUE(f.plane.paused(2));
  // Hysteresis: a lead between resume and pause keeps the pause.
  EXPECT_FALSE(f.plane.control(2, eligible(0, 2.0), 0.2));
  EXPECT_TRUE(f.plane.paused(2));
  // Lead falls under the resume threshold: the burst resumes.
  EXPECT_TRUE(f.plane.control(2, eligible(0, 0.8), 0.3));
  EXPECT_FALSE(f.plane.paused(2));
  EXPECT_EQ(f.stats.cdn_pauses, 1u);
  EXPECT_EQ(f.stats.cdn_resumes, 1u);
}

TEST(CdnAssist, CoverageHandsOffAndChurnReentersBurst) {
  AssistFixture f;
  EXPECT_TRUE(f.plane.control(1, eligible(0), 0.0));
  // Gossip suppliers cover the window: hand off, stop serving.
  EXPECT_FALSE(f.plane.control(1, eligible(0, 5.0, /*cover=*/true), 2.0));
  EXPECT_EQ(f.plane.state(1), CdnAssistPlane::State::kHandoff);
  EXPECT_EQ(f.stats.cdn_handoffs, 1u);
  ASSERT_EQ(f.plane.assist_samples(), 1u);
  EXPECT_DOUBLE_EQ(f.plane.mean_assist_s(), 2.0);
  // Coverage broken but playback still has lead: stay in handoff.
  EXPECT_FALSE(f.plane.control(1, eligible(0, 5.0, /*cover=*/false), 2.5));
  EXPECT_EQ(f.plane.state(1), CdnAssistPlane::State::kHandoff);
  // Coverage broken *and* the lead is about to underrun: burst again,
  // same episode (no second enrollment, no second assist-time sample).
  EXPECT_TRUE(f.plane.control(1, eligible(0, 0.5, /*cover=*/false), 3.0));
  EXPECT_EQ(f.plane.state(1), CdnAssistPlane::State::kBurst);
  EXPECT_EQ(f.stats.cdn_assisted_switches, 1u);
  EXPECT_EQ(f.plane.assist_samples(), 1u);
}

TEST(CdnAssist, NewerSwitchSupersedesRunningAssist) {
  AssistFixture f;
  EXPECT_TRUE(f.plane.control(3, eligible(0), 0.0));
  EXPECT_TRUE(f.plane.control(3, eligible(1), 4.0));
  EXPECT_EQ(f.plane.state(3), CdnAssistPlane::State::kBurst);
  EXPECT_EQ(f.stats.cdn_assisted_switches, 2u);
  // The superseded burst contributed its assist time.
  EXPECT_EQ(f.plane.assist_samples(), 1u);
  EXPECT_DOUBLE_EQ(f.plane.mean_assist_s(), 4.0);
}

TEST(CdnAssist, ServesPatchesAtUplinkRateWithFixedLatency) {
  CdnAssistConfig config;
  config.rate = 10.0;        // tx = 0.1 s
  config.latency_ms = 40.0;  // + 0.04 s
  AssistFixture f(config);
  double first = 0.0;
  double second = 0.0;
  ASSERT_TRUE(f.plane.request(1, 0.0, first));
  ASSERT_TRUE(f.plane.request(2, 0.0, second));  // queues behind peer 1
  EXPECT_DOUBLE_EQ(first, 0.1 + 0.04);
  // Shared FIFO: the second patch waits for the first transmission.
  EXPECT_DOUBLE_EQ(second, 0.2 + 0.04);
}

TEST(CdnAssist, AcceptHorizonRejectsDeepBacklog) {
  CdnAssistConfig config;
  config.rate = 10.0;
  config.accept_horizon = 0.15;
  AssistFixture f(config);
  double deliver_at = 0.0;
  ASSERT_TRUE(f.plane.request(1, 0.0, deliver_at));
  ASSERT_TRUE(f.plane.request(1, 0.0, deliver_at));
  // Backlog now 0.2 s > horizon: rejected, nothing committed.
  EXPECT_FALSE(f.plane.request(2, 0.0, deliver_at));
  EXPECT_EQ(f.stats.cdn_requests_rejected, 1u);
  EXPECT_DOUBLE_EQ(deliver_at, 0.2 + 0.04);  // the second patch's; the reject wrote nothing
}

TEST(CdnAssist, PerLinkCapacityGivesEveryPeerItsOwnLane) {
  CdnAssistConfig config;
  config.rate = 10.0;
  config.latency_ms = 0.0;
  config.capacity = SupplierCapacityModel::kPerLink;
  AssistFixture f(config);
  double first = 0.0;
  double second = 0.0;
  ASSERT_TRUE(f.plane.request(1, 0.0, first));
  ASSERT_TRUE(f.plane.request(2, 0.0, second));
  // Independent lanes: both patches land after one transmission time.
  EXPECT_DOUBLE_EQ(first, 0.1);
  EXPECT_DOUBLE_EQ(second, 0.1);
}

}  // namespace
}  // namespace gs::stream
