// TransferPlane unit tests: queue-delay estimates, backlog acceptance and
// the arrival times the plane prices each transfer with, under every
// capacity model.
#include <gtest/gtest.h>

#include <vector>

#include "net/latency.hpp"
#include "stream/transfer_plane.hpp"

namespace gs::stream {
namespace {

struct PlaneFixture {
  net::LatencyModel latency{std::vector<double>{40.0, 40.0, 40.0, 40.0}};
  TransferPlane plane;
  std::vector<PeerNode> peers;

  explicit PlaneFixture(SupplierCapacityModel kind, double accept_horizon = 2.0,
                        double token_bucket_burst = 4.0)
      : plane(latency, kind, accept_horizon, token_bucket_burst) {
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

/// True when `at` is the arrival of a transfer whose transmission ends at
/// `sent`: the fixture's one-way link latency is (40 + 40) / 4 = 20 ms with
/// +-20% jitter.
bool arrives_after(double at, double sent) { return at >= sent + 0.016 && at <= sent + 0.024; }

TEST(TransferPlane, SharedFifoSerializesOneSupplier) {
  PlaneFixture f(SupplierCapacityModel::kSharedFifo);
  // Two different requesters hit the same supplier: the second queues
  // behind the first on the supplier's uplink FIFO.
  EXPECT_EQ(f.plane.queue_delay(0, 2, 0.0), 0.0);
  double first = 0.0;
  ASSERT_TRUE(f.plane.request_staged(f.peers[0], f.peers[2], 0.0, first));
  EXPECT_DOUBLE_EQ(f.plane.uplink_busy_until(2), 0.1);
  EXPECT_DOUBLE_EQ(f.plane.queue_delay(1, 2, 0.0), 0.1)
      << "a different requester sees the shared backlog";
  double second = 0.0;
  ASSERT_TRUE(f.plane.request_staged(f.peers[1], f.peers[2], 0.0, second));
  EXPECT_DOUBLE_EQ(f.plane.uplink_busy_until(2), 0.2);
  EXPECT_EQ(f.plane.capacity().name(), "shared-fifo");

  EXPECT_TRUE(arrives_after(first, 0.1)) << first;
  EXPECT_TRUE(arrives_after(second, 0.2)) << "the second transfer sends after the first";
}

TEST(TransferPlane, PerLinkIsolatesRequesters) {
  PlaneFixture f(SupplierCapacityModel::kPerLink);
  double first = 0.0;
  ASSERT_TRUE(f.plane.request_staged(f.peers[0], f.peers[2], 0.0, first));
  // A different requester on the same supplier sees no backlog at all.
  EXPECT_EQ(f.plane.queue_delay(1, 2, 0.0), 0.0);
  // The same requester on the same link does queue.
  EXPECT_DOUBLE_EQ(f.plane.queue_delay(0, 2, 0.0), 0.1);
  double second = 0.0;
  ASSERT_TRUE(f.plane.request_staged(f.peers[1], f.peers[2], 0.0, second));
  EXPECT_EQ(f.plane.capacity().name(), "per-link");
  // The uplink FIFO is untouched by per-link pulls (it serves the push path).
  EXPECT_EQ(f.plane.uplink_busy_until(2), CapacityModel::kIdle);

  EXPECT_TRUE(arrives_after(first, 0.1)) << first;
  EXPECT_TRUE(arrives_after(second, 0.1)) << "independent links send concurrently";
}

TEST(TransferPlane, AcceptHorizonRejectsDeepBacklogs) {
  PlaneFixture f(SupplierCapacityModel::kSharedFifo, /*accept_horizon=*/0.15);
  double first = 0.0;
  double second = 0.0;
  ASSERT_TRUE(f.plane.request_staged(f.peers[0], f.peers[2], 0.0, first));
  ASSERT_TRUE(f.plane.request_staged(f.peers[0], f.peers[2], 0.0, second));
  // Backlog now 0.2 s > horizon 0.15 s: the third request is refused and
  // commits and prices nothing.
  double refused = -1.0;
  EXPECT_FALSE(f.plane.request_staged(f.peers[1], f.peers[2], 0.0, refused));
  EXPECT_EQ(refused, -1.0);
  EXPECT_DOUBLE_EQ(f.plane.uplink_busy_until(2), 0.2);
  EXPECT_TRUE(arrives_after(first, 0.1)) << first;
  EXPECT_TRUE(arrives_after(second, 0.2)) << second;
}

TEST(TransferPlane, PerLinkHorizonIsPerRequester) {
  PlaneFixture f(SupplierCapacityModel::kPerLink, /*accept_horizon=*/0.15);
  double at = 0.0;
  ASSERT_TRUE(f.plane.request_staged(f.peers[0], f.peers[2], 0.0, at));
  ASSERT_TRUE(f.plane.request_staged(f.peers[0], f.peers[2], 0.0, at));
  // Requester 0 saturated its link...
  EXPECT_FALSE(f.plane.request_staged(f.peers[0], f.peers[2], 0.0, at));
  // ...but requester 1's independent link still accepts, unqueued.
  EXPECT_TRUE(f.plane.request_staged(f.peers[1], f.peers[2], 0.0, at));
  EXPECT_TRUE(arrives_after(at, 0.1)) << at;
}

TEST(TransferPlane, PushUsesUplinkFifoUnderBothModels) {
  for (const auto kind :
       {SupplierCapacityModel::kSharedFifo, SupplierCapacityModel::kPerLink}) {
    PlaneFixture f(kind);
    double first = 0.0;
    ASSERT_TRUE(f.plane.push(f.peers[2], 0, 0.0, first));
    EXPECT_DOUBLE_EQ(f.plane.uplink_busy_until(2), 0.1)
        << "push contends on the pusher's own uplink regardless of model";
    double second = 0.0;
    ASSERT_TRUE(f.plane.push(f.peers[2], 1, 0.0, second));
    EXPECT_DOUBLE_EQ(f.plane.uplink_busy_until(2), 0.2);
    EXPECT_TRUE(arrives_after(first, 0.1)) << first;
    EXPECT_TRUE(arrives_after(second, 0.2)) << second;
  }
}

TEST(TransferPlane, PushRejectsSaturatedUplink) {
  PlaneFixture f(SupplierCapacityModel::kSharedFifo, /*accept_horizon=*/0.15);
  double at = 0.0;
  ASSERT_TRUE(f.plane.push(f.peers[2], 0, 0.0, at));
  ASSERT_TRUE(f.plane.push(f.peers[2], 1, 0.0, at));
  EXPECT_FALSE(f.plane.push(f.peers[2], 3, 0.0, at));
}

TEST(TokenBucket, BurstPassesAtZeroDelayThenRateLimits) {
  PlaneFixture f(SupplierCapacityModel::kTokenBucket, /*accept_horizon=*/2.0, /*burst=*/3.0);
  EXPECT_EQ(f.plane.capacity().name(), "token-bucket");
  EXPECT_TRUE(f.plane.supplier_shared());
  // A full bucket (3 tokens at rate 10/s) serves three transfers back to
  // back with no queueing...
  for (int k = 0; k < 3; ++k) {
    EXPECT_DOUBLE_EQ(f.plane.queue_delay(0, 2, 0.0), 0.0) << "token " << k;
    double at = 0.0;
    ASSERT_TRUE(f.plane.request_staged(f.peers[0], f.peers[2], 0.0, at));
    EXPECT_TRUE(arrives_after(at, 0.1)) << "token " << k << ": " << at;
  }
  // ...then the next transfers space at one token per tx = 0.1 s.
  EXPECT_DOUBLE_EQ(f.plane.queue_delay(1, 2, 0.0), 0.1)
      << "the bucket is supplier-shared: a different requester sees it empty";
  double at = 0.0;
  ASSERT_TRUE(f.plane.request_staged(f.peers[1], f.peers[2], 0.0, at));
  EXPECT_TRUE(arrives_after(at, 0.2)) << at;
  EXPECT_DOUBLE_EQ(f.plane.queue_delay(1, 2, 0.0), 0.2);
  // An idle stretch refills the bucket: at t=1.0 the backlog is gone.
  EXPECT_DOUBLE_EQ(f.plane.queue_delay(0, 2, 1.0), 0.0);
}

TEST(TokenBucket, BurstOneDegeneratesToSharedFifoSpacing) {
  PlaneFixture fifo(SupplierCapacityModel::kSharedFifo);
  PlaneFixture bucket(SupplierCapacityModel::kTokenBucket, 2.0, /*burst=*/1.0);
  for (int k = 0; k < 3; ++k) {
    EXPECT_DOUBLE_EQ(fifo.plane.queue_delay(0, 2, 0.0), bucket.plane.queue_delay(0, 2, 0.0))
        << "transfer " << k;
    double fifo_at = 0.0;
    double bucket_at = 0.0;
    ASSERT_TRUE(fifo.plane.request_staged(fifo.peers[0], fifo.peers[2], 0.0, fifo_at));
    ASSERT_TRUE(bucket.plane.request_staged(bucket.peers[0], bucket.peers[2], 0.0, bucket_at));
    EXPECT_EQ(fifo_at, bucket_at) << "transfer " << k;
  }
  EXPECT_DOUBLE_EQ(fifo.plane.queue_delay(1, 2, 0.0), 0.3);
  EXPECT_DOUBLE_EQ(bucket.plane.queue_delay(1, 2, 0.0), 0.3);
}

TEST(TokenBucket, AcceptHorizonBoundsTheBurstDebt) {
  PlaneFixture f(SupplierCapacityModel::kTokenBucket, /*accept_horizon=*/0.15, /*burst=*/2.0);
  double at = 0.0;
  ASSERT_TRUE(f.plane.request_staged(f.peers[0], f.peers[2], 0.0, at));
  ASSERT_TRUE(f.plane.request_staged(f.peers[0], f.peers[2], 0.0, at));  // bucket empty
  EXPECT_TRUE(arrives_after(at, 0.1)) << at;
  ASSERT_TRUE(f.plane.request_staged(f.peers[0], f.peers[2], 0.0, at));  // 0.1 s debt
  EXPECT_TRUE(arrives_after(at, 0.2)) << at;
  // 0.2 s of token debt exceeds the 0.15 s horizon: refused, no commit.
  EXPECT_FALSE(f.plane.request_staged(f.peers[1], f.peers[2], 0.0, at));
  EXPECT_DOUBLE_EQ(f.plane.queue_delay(1, 2, 0.0), 0.2);
}

TEST(TokenBucket, PushAndPullShareOneTokenLedger) {
  // A supplier must not serve pulls at full rate while also pushing at
  // full rate: pushes draw from the same bucket as pulls.
  PlaneFixture f(SupplierCapacityModel::kTokenBucket, /*accept_horizon=*/2.0, /*burst=*/2.0);
  double at = 0.0;
  ASSERT_TRUE(f.plane.push(f.peers[2], 0, 0.0, at));
  ASSERT_TRUE(f.plane.push(f.peers[2], 1, 0.0, at));  // bucket drained
  EXPECT_DOUBLE_EQ(f.plane.queue_delay(0, 2, 0.0), 0.1)
      << "a pull after two pushes must see the token debt";
  ASSERT_TRUE(f.plane.request_staged(f.peers[0], f.peers[2], 0.0, at));
  EXPECT_TRUE(arrives_after(at, 0.2)) << at;
  EXPECT_DOUBLE_EQ(f.plane.queue_delay(1, 2, 0.0), 0.2);
}

TEST(TransferPlane, SupplierSharedReflectsCapacityKeying) {
  EXPECT_TRUE(PlaneFixture(SupplierCapacityModel::kSharedFifo).plane.supplier_shared());
  EXPECT_FALSE(PlaneFixture(SupplierCapacityModel::kPerLink).plane.supplier_shared());
}

TEST(TransferPlane, DeliveryIncludesTransmissionAndLatency) {
  PlaneFixture f(SupplierCapacityModel::kSharedFifo);
  double at = 0.0;
  ASSERT_TRUE(f.plane.request_staged(f.peers[0], f.peers[2], 0.0, at));
  // tx = 0.1 s; one-way latency (40 + 40)/4 = 20 ms with +-20% jitter.
  EXPECT_GE(at, 0.1 + 0.016);
  EXPECT_LE(at, 0.1 + 0.024);
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
  double at = 0.0;
  EXPECT_TRUE(f.plane.request_staged(f.peers[4], f.peers[5], 0.0, at));
  EXPECT_DOUBLE_EQ(f.plane.uplink_busy_until(5), 0.2);
  EXPECT_TRUE(arrives_after(at, 0.2)) << at;
}

}  // namespace
}  // namespace gs::stream
