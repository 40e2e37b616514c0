// TransferPlane unit tests: queue-delay estimates, backlog acceptance and
// delivery scheduling under both capacity models (shared FIFO vs per-link).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/latency.hpp"
#include "sim/simulator.hpp"
#include "stream/transfer_plane.hpp"

namespace gs::stream {
namespace {

struct PlaneFixture {
  sim::Simulator sim;
  net::LatencyModel latency{std::vector<double>{40.0, 40.0, 40.0, 40.0}};
  std::vector<std::pair<net::NodeId, SegmentId>> delivered;
  TransferPlane plane;
  std::vector<PeerNode> peers;

  explicit PlaneFixture(SupplierCapacityModel kind, double accept_horizon = 2.0,
                        double token_bucket_burst = 4.0)
      : plane(sim, latency, kind, accept_horizon,
              [this](net::NodeId to, SegmentId id) { delivered.emplace_back(to, id); },
              token_bucket_burst) {
    peers.resize(4);
    for (net::NodeId v = 0; v < 4; ++v) {
      PeerNode& p = peers[v];
      p.id = v;
      p.outbound_rate = 10.0;  // tx time = 0.1 s per segment
      p.rng = util::Rng(7).fork(v);
    }
    plane.ensure_nodes(peers.size());
  }
};

TEST(TransferPlane, SharedFifoSerializesOneSupplier) {
  PlaneFixture f(SupplierCapacityModel::kSharedFifo);
  // Two different requesters hit the same supplier: the second queues
  // behind the first on the supplier's uplink FIFO.
  EXPECT_EQ(f.plane.queue_delay(0, 2, 0.0), 0.0);
  ASSERT_TRUE(f.plane.request(f.peers[0], f.peers[2], 100, 0.0));
  EXPECT_DOUBLE_EQ(f.plane.uplink_busy_until(2), 0.1);
  EXPECT_DOUBLE_EQ(f.plane.queue_delay(1, 2, 0.0), 0.1)
      << "a different requester sees the shared backlog";
  ASSERT_TRUE(f.plane.request(f.peers[1], f.peers[2], 101, 0.0));
  EXPECT_DOUBLE_EQ(f.plane.uplink_busy_until(2), 0.2);
  EXPECT_EQ(f.plane.capacity().name(), "shared-fifo");

  f.sim.run_all();
  ASSERT_EQ(f.delivered.size(), 2u);
  EXPECT_EQ(f.delivered[0], (std::pair<net::NodeId, SegmentId>{0, 100}));
  EXPECT_EQ(f.delivered[1], (std::pair<net::NodeId, SegmentId>{1, 101}));
}

TEST(TransferPlane, PerLinkIsolatesRequesters) {
  PlaneFixture f(SupplierCapacityModel::kPerLink);
  ASSERT_TRUE(f.plane.request(f.peers[0], f.peers[2], 100, 0.0));
  // A different requester on the same supplier sees no backlog at all.
  EXPECT_EQ(f.plane.queue_delay(1, 2, 0.0), 0.0);
  // The same requester on the same link does queue.
  EXPECT_DOUBLE_EQ(f.plane.queue_delay(0, 2, 0.0), 0.1);
  ASSERT_TRUE(f.plane.request(f.peers[1], f.peers[2], 101, 0.0));
  EXPECT_EQ(f.plane.capacity().name(), "per-link");
  // The uplink FIFO is untouched by per-link pulls (it serves the push path).
  EXPECT_EQ(f.plane.uplink_busy_until(2), CapacityModel::kIdle);

  f.sim.run_all();
  EXPECT_EQ(f.delivered.size(), 2u);
}

TEST(TransferPlane, AcceptHorizonRejectsDeepBacklogs) {
  PlaneFixture f(SupplierCapacityModel::kSharedFifo, /*accept_horizon=*/0.15);
  ASSERT_TRUE(f.plane.request(f.peers[0], f.peers[2], 100, 0.0));
  ASSERT_TRUE(f.plane.request(f.peers[0], f.peers[2], 101, 0.0));
  // Backlog now 0.2 s > horizon 0.15 s: the third request is refused and
  // commits nothing.
  EXPECT_FALSE(f.plane.request(f.peers[1], f.peers[2], 102, 0.0));
  EXPECT_DOUBLE_EQ(f.plane.uplink_busy_until(2), 0.2);
  f.sim.run_all();
  EXPECT_EQ(f.delivered.size(), 2u);
}

TEST(TransferPlane, PerLinkHorizonIsPerRequester) {
  PlaneFixture f(SupplierCapacityModel::kPerLink, /*accept_horizon=*/0.15);
  ASSERT_TRUE(f.plane.request(f.peers[0], f.peers[2], 100, 0.0));
  ASSERT_TRUE(f.plane.request(f.peers[0], f.peers[2], 101, 0.0));
  // Requester 0 saturated its link...
  EXPECT_FALSE(f.plane.request(f.peers[0], f.peers[2], 102, 0.0));
  // ...but requester 1's independent link still accepts.
  EXPECT_TRUE(f.plane.request(f.peers[1], f.peers[2], 103, 0.0));
}

TEST(TransferPlane, PushUsesUplinkFifoUnderBothModels) {
  for (const auto kind :
       {SupplierCapacityModel::kSharedFifo, SupplierCapacityModel::kPerLink}) {
    PlaneFixture f(kind);
    ASSERT_TRUE(f.plane.push(f.peers[2], 0, 50, 0.0));
    EXPECT_DOUBLE_EQ(f.plane.uplink_busy_until(2), 0.1)
        << "push contends on the pusher's own uplink regardless of model";
    ASSERT_TRUE(f.plane.push(f.peers[2], 1, 50, 0.0));
    EXPECT_DOUBLE_EQ(f.plane.uplink_busy_until(2), 0.2);
    f.sim.run_all();
    ASSERT_EQ(f.delivered.size(), 2u);
    EXPECT_EQ(f.delivered[0].second, 50);
  }
}

TEST(TransferPlane, PushRejectsSaturatedUplink) {
  PlaneFixture f(SupplierCapacityModel::kSharedFifo, /*accept_horizon=*/0.15);
  ASSERT_TRUE(f.plane.push(f.peers[2], 0, 50, 0.0));
  ASSERT_TRUE(f.plane.push(f.peers[2], 1, 51, 0.0));
  EXPECT_FALSE(f.plane.push(f.peers[2], 3, 52, 0.0));
}

TEST(TokenBucket, BurstPassesAtZeroDelayThenRateLimits) {
  PlaneFixture f(SupplierCapacityModel::kTokenBucket, /*accept_horizon=*/2.0, /*burst=*/3.0);
  EXPECT_EQ(f.plane.capacity().name(), "token-bucket");
  EXPECT_TRUE(f.plane.supplier_shared());
  // A full bucket (3 tokens at rate 10/s) serves three transfers back to
  // back with no queueing...
  for (int k = 0; k < 3; ++k) {
    EXPECT_DOUBLE_EQ(f.plane.queue_delay(0, 2, 0.0), 0.0) << "token " << k;
    ASSERT_TRUE(f.plane.request(f.peers[0], f.peers[2], 100 + k, 0.0));
  }
  // ...then the next transfers space at one token per tx = 0.1 s.
  EXPECT_DOUBLE_EQ(f.plane.queue_delay(1, 2, 0.0), 0.1)
      << "the bucket is supplier-shared: a different requester sees it empty";
  ASSERT_TRUE(f.plane.request(f.peers[1], f.peers[2], 103, 0.0));
  EXPECT_DOUBLE_EQ(f.plane.queue_delay(1, 2, 0.0), 0.2);
  // An idle stretch refills the bucket: at t=1.0 the backlog is gone.
  EXPECT_DOUBLE_EQ(f.plane.queue_delay(0, 2, 1.0), 0.0);
  // The uplink FIFO is untouched by token-bucket pulls (push path only).
  EXPECT_EQ(f.plane.uplink_busy_until(2), CapacityModel::kIdle);
  f.sim.run_all();
  EXPECT_EQ(f.delivered.size(), 4u);
}

TEST(TokenBucket, BurstOneDegeneratesToSharedFifoSpacing) {
  PlaneFixture fifo(SupplierCapacityModel::kSharedFifo);
  PlaneFixture bucket(SupplierCapacityModel::kTokenBucket, 2.0, /*burst=*/1.0);
  for (int k = 0; k < 3; ++k) {
    EXPECT_DOUBLE_EQ(fifo.plane.queue_delay(0, 2, 0.0), bucket.plane.queue_delay(0, 2, 0.0))
        << "transfer " << k;
    ASSERT_TRUE(fifo.plane.request(fifo.peers[0], fifo.peers[2], 100 + k, 0.0));
    ASSERT_TRUE(bucket.plane.request(bucket.peers[0], bucket.peers[2], 100 + k, 0.0));
  }
  EXPECT_DOUBLE_EQ(fifo.plane.queue_delay(1, 2, 0.0), 0.3);
  EXPECT_DOUBLE_EQ(bucket.plane.queue_delay(1, 2, 0.0), 0.3);
}

TEST(TokenBucket, AcceptHorizonBoundsTheBurstDebt) {
  PlaneFixture f(SupplierCapacityModel::kTokenBucket, /*accept_horizon=*/0.15, /*burst=*/2.0);
  ASSERT_TRUE(f.plane.request(f.peers[0], f.peers[2], 100, 0.0));
  ASSERT_TRUE(f.plane.request(f.peers[0], f.peers[2], 101, 0.0));  // bucket empty
  ASSERT_TRUE(f.plane.request(f.peers[0], f.peers[2], 102, 0.0));  // 0.1 s debt
  // 0.2 s of token debt exceeds the 0.15 s horizon: refused, no commit.
  EXPECT_FALSE(f.plane.request(f.peers[1], f.peers[2], 103, 0.0));
  EXPECT_DOUBLE_EQ(f.plane.queue_delay(1, 2, 0.0), 0.2);
  f.sim.run_all();
  EXPECT_EQ(f.delivered.size(), 3u);
}

TEST(TokenBucket, PushAndPullShareOneTokenLedger) {
  // A supplier must not serve pulls at full rate while also pushing at
  // full rate: pushes draw from the same bucket as pulls.
  PlaneFixture f(SupplierCapacityModel::kTokenBucket, /*accept_horizon=*/2.0, /*burst=*/2.0);
  ASSERT_TRUE(f.plane.push(f.peers[2], 0, 50, 0.0));
  ASSERT_TRUE(f.plane.push(f.peers[2], 1, 51, 0.0));  // bucket drained
  EXPECT_DOUBLE_EQ(f.plane.queue_delay(0, 2, 0.0), 0.1)
      << "a pull after two pushes must see the token debt";
  ASSERT_TRUE(f.plane.request(f.peers[0], f.peers[2], 52, 0.0));
  EXPECT_DOUBLE_EQ(f.plane.queue_delay(1, 2, 0.0), 0.2);
  // The FIFO vector is untouched: the ledger is the bucket for both paths.
  EXPECT_EQ(f.plane.uplink_busy_until(2), CapacityModel::kIdle);
  f.sim.run_all();
  EXPECT_EQ(f.delivered.size(), 3u);
}

TEST(TransferPlane, SupplierSharedReflectsCapacityKeying) {
  EXPECT_TRUE(PlaneFixture(SupplierCapacityModel::kSharedFifo).plane.supplier_shared());
  EXPECT_FALSE(PlaneFixture(SupplierCapacityModel::kPerLink).plane.supplier_shared());
}

TEST(TransferPlane, DeliveryIncludesTransmissionAndLatency) {
  PlaneFixture f(SupplierCapacityModel::kSharedFifo);
  ASSERT_TRUE(f.plane.request(f.peers[0], f.peers[2], 100, 0.0));
  f.sim.run_all();
  ASSERT_EQ(f.delivered.size(), 1u);
  // tx = 0.1 s; one-way latency (40 + 40)/4 = 20 ms with +-20% jitter.
  EXPECT_GE(f.sim.now(), 0.1 + 0.016);
  EXPECT_LE(f.sim.now(), 0.1 + 0.024);
}

TEST(TransferPlane, EnsureNodesGrowsForJoiners) {
  PlaneFixture f(SupplierCapacityModel::kSharedFifo);
  f.peers.resize(6);
  for (net::NodeId v = 4; v < 6; ++v) {
    f.peers[v].id = v;
    f.peers[v].outbound_rate = 5.0;
    f.peers[v].rng = util::Rng(7).fork(v);
    f.latency.add_node(40.0);
  }
  f.plane.ensure_nodes(f.peers.size());
  EXPECT_EQ(f.plane.uplink_busy_until(5), CapacityModel::kIdle);
  EXPECT_TRUE(f.plane.request(f.peers[4], f.peers[5], 7, 0.0));
  EXPECT_DOUBLE_EQ(f.plane.uplink_busy_until(5), 0.2);
}

}  // namespace
}  // namespace gs::stream
