// Buffer-map snapshots, overhead accounting, membership protocol.
#include <gtest/gtest.h>

#include "gossip/buffer_map.hpp"
#include "gossip/membership.hpp"
#include "gossip/message.hpp"
#include "gossip/overhead.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace gs::gossip {
namespace {

TEST(BufferMap, WindowWordReadsZeroOutsideTheWindow) {
  util::DynamicBitset presence(800);
  for (const std::size_t id : {99u, 100u, 350u, 699u, 700u}) presence.set(id);
  BufferMap map;
  map.assign_from_presence(100, 600, presence);
  EXPECT_EQ(map.base(), 100);
  EXPECT_EQ(map.window(), 600u);
  EXPECT_EQ(map.window_word(100), 1u);  // 99 lies below the base
  EXPECT_EQ(map.window_word(350) & 1, 1u);
  EXPECT_EQ(map.window_word(351) & 1, 0u);
  EXPECT_EQ(map.window_word(699), 1u);  // 700 lies past the window
  EXPECT_EQ(map.window_word(99), 2u);   // straddles the base: 99 reads 0
  EXPECT_EQ(map.window_word(100 - 64), 0u);
  EXPECT_EQ(map.window_word(700), 0u);
}

TEST(WireFormat, PaperNumbers) {
  constexpr WireFormat wire = paper_wire_format();
  EXPECT_EQ(wire.buffer_map_bits(), 620u);
  EXPECT_EQ(wire.data_bits(), 30u * 1024u);
  EXPECT_EQ(wire.request_bits(3), 60u);
}

TEST(Overhead, PaperRatioApproximation) {
  // S5.3: a node getting p=10 segments/s from M=5 neighbours pays
  // 620*5 control bits per 10*30Kb data bits ~ 1%.
  OverheadAccountant acc;
  for (int period = 0; period < 100; ++period) {
    acc.charge_buffer_map_exchanges(5);
    for (int seg = 0; seg < 10; ++seg) acc.charge_data_segment();
  }
  const double ratio =
      static_cast<double>(acc.buffer_map_bits()) / static_cast<double>(acc.data_bits());
  EXPECT_NEAR(ratio, 620.0 * 5 / (10.0 * 30 * 1024), 1e-9);
  EXPECT_NEAR(ratio, 0.01, 0.002);
}

TEST(Overhead, DisabledWindowDropsCharges) {
  OverheadAccountant acc;
  acc.set_enabled(false);
  acc.charge_buffer_map_exchanges(1);
  acc.charge_data_segment();
  acc.charge_request(5);
  EXPECT_EQ(acc.buffer_map_bits(), 0u);
  EXPECT_EQ(acc.data_bits(), 0u);
  acc.set_enabled(true);
  acc.charge_data_segment();
  EXPECT_EQ(acc.data_segments(), 1u);
}

class MembershipFixture : public ::testing::Test {
 protected:
  MembershipFixture() : rng_(99) {
    graph_ = net::preferential_attachment(200, 2, rng_);
    net::repair_min_degree(graph_, 5, rng_);
    membership_ = std::make_unique<MembershipProtocol>(graph_, 5, rng_.fork(1), &overhead_);
    membership_->bootstrap_all_live();
  }

  util::Rng rng_;
  net::Graph graph_;
  OverheadAccountant overhead_;
  std::unique_ptr<MembershipProtocol> membership_;
};

TEST_F(MembershipFixture, BootstrapMarksAllLive) {
  EXPECT_EQ(membership_->live_count(), 200u);
  for (net::NodeId v = 0; v < 200; ++v) EXPECT_TRUE(membership_->alive(v));
}

TEST_F(MembershipFixture, JoinWiresToTargetDegree) {
  const net::NodeId v = membership_->join();
  EXPECT_EQ(v, 200u);
  EXPECT_TRUE(membership_->alive(v));
  EXPECT_EQ(graph_.degree(v), 5u);
  EXPECT_EQ(membership_->live_count(), 201u);
}

TEST_F(MembershipFixture, LeaveDetachesAndRepairs) {
  const net::NodeId victim = 42;
  const std::vector<net::NodeId> old_neighbors(graph_.neighbors(victim).begin(),
                                               graph_.neighbors(victim).end());
  membership_->leave(victim);
  EXPECT_FALSE(membership_->alive(victim));
  EXPECT_EQ(graph_.degree(victim), 0u);
  EXPECT_EQ(membership_->live_count(), 199u);
  for (const net::NodeId u : old_neighbors) {
    EXPECT_GE(graph_.degree(u), 5u) << "repair restored neighbour " << u;
  }
}

TEST_F(MembershipFixture, RandomLiveReturnsLiveNodes) {
  membership_->leave(0);
  membership_->leave(1);
  for (int i = 0; i < 200; ++i) {
    const net::NodeId v = membership_->random_live();
    EXPECT_TRUE(membership_->alive(v));
  }
}

TEST_F(MembershipFixture, ChurnStormKeepsInvariants) {
  // The paper's dynamic setting: 5% leave + 5% join per period, here
  // exaggerated over many rounds.  Live nodes must keep degree >= 5
  // (when enough peers exist) and the live list must stay consistent.
  util::Rng churn(7);
  for (int round = 0; round < 50; ++round) {
    for (int k = 0; k < 10; ++k) {
      const net::NodeId victim = membership_->random_live();
      membership_->leave(victim);
    }
    for (int k = 0; k < 10; ++k) (void)membership_->join();
  }
  EXPECT_EQ(membership_->live_count(), 200u);
  std::size_t checked = 0;
  for (const net::NodeId v : membership_->live_nodes()) {
    EXPECT_TRUE(membership_->alive(v));
    EXPECT_GE(graph_.degree(v), 5u);
    ++checked;
  }
  EXPECT_EQ(checked, 200u);
}

TEST_F(MembershipFixture, MembershipTrafficCharged) {
  const auto before = overhead_.membership_bits();
  (void)membership_->join();
  EXPECT_GT(overhead_.membership_bits(), before);
}

}  // namespace
}  // namespace gs::gossip
