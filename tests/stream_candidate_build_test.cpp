// Reference test for the word-parallel candidate build: collect_candidates
// is run on randomized neighbourhoods and compared, field by field, with a
// brute-force build that asks every (id, neighbour) pair through
// StreamBuffer::contains.  The inputs cover empty neighbour buffers, heavy
// eviction at B = 64, request windows reaching past a neighbour's presence
// size, received sets, pending retries (expired, due now and in flight),
// and anchors and heads on and off 64-id word boundaries; every round also
// plants held, missing ids just inside and just outside both window edges,
// so an off-by-one in either edge mask changes the candidate set.  Each
// round also checks the supplier store's layout, and that a second build of
// the same input on the warm store neither moves nor grows it.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "net/latency.hpp"
#include "stream/candidate_build.hpp"
#include "util/rng.hpp"

namespace gs::stream {
namespace {

/// Fills `buffer` streaming-style: ids mostly ascending from `lo` with
/// random gaps and reorderings, `count` draws in all (so counts above B
/// evict heavily); ids past `cap` are skipped.
void fill(StreamBuffer& buffer, util::Rng& rng, SegmentId lo, std::size_t count, SegmentId cap) {
  SegmentId next = lo;
  for (std::size_t i = 0; i < count; ++i) {
    next += static_cast<SegmentId>(rng.uniform_int(0, 2));
    const SegmentId jitter = static_cast<SegmentId>(rng.uniform_int(-3, 3));
    const SegmentId id = std::max<SegmentId>(0, next + jitter);
    if (id <= cap) buffer.insert(id);
  }
}

/// Makes `id` held as the buffer's newest segment (a full buffer evicts its
/// oldest one for it).
void plant(StreamBuffer& buffer, SegmentId id) {
  if (id >= 0) buffer.insert(id);
}

/// A reference candidate: the brute force owns its supplier lists.
struct Expected {
  SegmentId id = kNoSegment;
  StreamEpoch epoch = StreamEpoch::kOld;
  std::vector<SupplierView> suppliers;
};

std::vector<Expected> brute_force(const PeerNode& p, const std::vector<net::NodeId>& neighbors,
                                  const std::vector<PeerNode>& peers,
                                  const TransferPlane& transfers, std::size_t capacity,
                                  SegmentId boundary, double now) {
  std::vector<Expected> out;
  SegmentId head = kNoSegment;
  for (const net::NodeId nb : neighbors) head = std::max(head, peers[nb].buffer.max_id());
  const SegmentId from = p.playback_anchor();
  if (head == kNoSegment || head < from) return out;
  const SegmentId to = std::min<SegmentId>(head, from + static_cast<SegmentId>(capacity) - 1);
  for (SegmentId id = from; id <= to; ++id) {
    if (p.has_received(id)) continue;
    const double* retry_at = p.pending.find(id);
    if (retry_at != nullptr && *retry_at > now) continue;
    Expected c;
    c.id = id;
    c.epoch = (boundary != kNoSegment && id > boundary) ? StreamEpoch::kNew : StreamEpoch::kOld;
    for (const net::NodeId nb : neighbors) {
      const PeerNode& n = peers[nb];
      if (!n.buffer.contains(id)) continue;
      SupplierView s;
      s.node = nb;
      s.send_rate = n.outbound_rate;
      s.buffer_position = n.buffer.position_from_tail(id);
      s.queue_delay = transfers.queue_delay(p.id, nb, now);
      c.suppliers.push_back(s);
    }
    if (!c.suppliers.empty()) out.push_back(std::move(c));
  }
  return out;
}

class CandidateBuildReference : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CandidateBuildReference, MatchesBruteForceOnRandomNeighbourhoods) {
  const std::size_t capacity = GetParam();
  constexpr std::size_t kPeers = 10;  // requester 0 plus up to 9 neighbours
  util::Rng rng(static_cast<std::uint64_t>(capacity) * 7919 + 1);
  // One scratch and one supplier store across all rounds, as a plan keeps
  // them: nothing may leak from one build into the next.
  CandidateScratch scratch;
  std::vector<SupplierView> store;
  std::vector<CandidateSegment> got;
  std::size_t nonempty_rounds = 0;

  for (int round = 0; round < 400; ++round) {
    net::LatencyModel latency(std::vector<double>(kPeers, 30.0));
    TransferPlane transfers(latency, SupplierCapacityModel::kSharedFifo, 1e9);
    transfers.ensure_nodes(kPeers);
    std::vector<PeerNode> peers(kPeers);
    for (net::NodeId v = 0; v < kPeers; ++v) {
      peers[v].id = v;
      peers[v].buffer = StreamBuffer(capacity);
      peers[v].outbound_rate = 5.0 + static_cast<double>(v);
    }
    PeerNode& p = peers[0];

    // Anchor on, just past or just before a word boundary, or anywhere.
    const auto word = static_cast<SegmentId>(rng.uniform_int(0, 20)) * 64;
    const SegmentId nudge[] = {0, 1, -1, static_cast<SegmentId>(rng.uniform_int(0, 63))};
    const SegmentId anchor =
        std::max<SegmentId>(0, word + nudge[static_cast<std::size_t>(rng.uniform_int(0, 3))]);
    p.start_id = anchor;
    const auto window = static_cast<SegmentId>(capacity);

    // Neighbours, in a random (not id-sorted) order.
    std::vector<net::NodeId> neighbors;
    const auto degree = static_cast<std::size_t>(rng.uniform_int(0, kPeers - 1));
    for (std::size_t i = 1; i <= degree; ++i) neighbors.push_back(static_cast<net::NodeId>(i));
    rng.shuffle(neighbors);
    // Half the rounds cut every neighbour's content at a head on, just
    // before or just past a word boundary inside the window, so the head,
    // not the window end, bounds the build.
    SegmentId cap = std::numeric_limits<SegmentId>::max();
    if (rng.bernoulli(0.5)) {
      const SegmentId edge =
          (anchor + static_cast<SegmentId>(rng.uniform_int(0, window))) / 64 * 64;
      cap = std::max<SegmentId>(0, edge + static_cast<SegmentId>(rng.uniform_int(-1, 1)));
    }
    for (const net::NodeId nb : neighbors) {
      const double shape = rng.uniform();
      if (shape < 0.15) continue;  // empty buffer: no presence bits at all
      // Start anywhere from well before the anchor to well past the
      // window, so some presence bitsets end inside (or before) it.
      const SegmentId lo = std::max<SegmentId>(
          0, anchor + static_cast<SegmentId>(rng.uniform_int(-2 * window, 2 * window)));
      // Up to 4 B inserts: at B = 64 most of them evict.
      fill(peers[nb].buffer, rng, lo,
           static_cast<std::size_t>(rng.uniform_int(1, 4 * static_cast<std::int64_t>(capacity))),
           cap);
    }
    // The edge probes: held ids at both sides of both window edges, and
    // the cut head itself with the id below it.
    if (!neighbors.empty()) {
      const auto any_neighbor = [&] {
        return neighbors[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(neighbors.size()) - 1))];
      };
      for (const SegmentId id : {anchor - 1, anchor, anchor + window - 1, anchor + window}) {
        const net::NodeId nb = any_neighbor();
        if (id <= cap && rng.bernoulli(0.8)) plant(peers[nb].buffer, id);
      }
      if (cap != std::numeric_limits<SegmentId>::max()) {
        const net::NodeId nb = any_neighbor();
        plant(peers[nb].buffer, cap - 1);
        plant(peers[nb].buffer, cap);
      }
    }

    // Received set: a dense prefix up to somewhere around the anchor plus
    // sparse ids inside and past the window — or nothing at all.
    if (rng.bernoulli(0.85)) {
      const SegmentId prefix = anchor + static_cast<SegmentId>(rng.uniform_int(-70, 70));
      for (SegmentId id = 0; id < prefix; ++id) p.mark_received(id);
      const double density = rng.uniform(0.0, 0.6);
      for (SegmentId id = anchor; id < anchor + window + 70; ++id) {
        if (rng.bernoulli(density)) p.mark_received(id);
      }
    }
    // Keep the edge probes missing most of the time.
    for (const SegmentId id : {anchor - 1, anchor, anchor + window - 1, anchor + window}) {
      if (id >= 0 && rng.bernoulli(0.8) && p.has_received(id)) {
        p.received.reset(static_cast<std::size_t>(id));
      }
    }
    // Pending retries: expired, due exactly now (retry-eligible) or still
    // in flight.
    const double now = 100.0;
    const auto pending = static_cast<std::size_t>(rng.uniform_int(0, 40));
    for (std::size_t i = 0; i < pending; ++i) {
      const SegmentId id =
          anchor + static_cast<SegmentId>(rng.uniform_int(-10, window + 10));
      if (id >= 0) p.pending.set(id, now + 0.5 * static_cast<double>(rng.uniform_int(-1, 1)));
    }
    // Uneven supplier backlogs, so queue delays differ per neighbour.
    for (const net::NodeId nb : neighbors) {
      const auto queued = rng.uniform_int(0, 3);
      double deliver_at = 0.0;
      for (std::int64_t q = 0; q < queued; ++q) {
        (void)transfers.request_staged(p, peers[nb], now, deliver_at);
      }
    }
    SegmentId boundary = kNoSegment;
    if (rng.bernoulli(0.5)) {
      boundary = anchor + static_cast<SegmentId>(rng.uniform_int(-5, window + 5));
    }

    got.clear();
    const std::uint64_t probes = collect_candidates(p, neighbors, peers, transfers, capacity,
                                                    boundary, now, store, scratch, got);
    const std::vector<Expected> want =
        brute_force(p, neighbors, peers, transfers, capacity, boundary, now);
    if (!want.empty()) ++nonempty_rounds;

    ASSERT_EQ(got.size(), want.size()) << "round " << round << " anchor " << anchor;
    EXPECT_EQ(probes, want.size() * neighbors.size()) << "round " << round;
    // The spans tile the store in candidate order, and the store holds
    // exactly the suppliers the candidates list.
    std::size_t total = 0;
    for (const Expected& w : want) total += w.suppliers.size();
    EXPECT_EQ(store.size(), total) << "round " << round;
    const SupplierView* next = store.data();
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].suppliers.data(), next) << "round " << round << " candidate " << i;
      next = got[i].suppliers.data() + got[i].suppliers.size();
    }
    EXPECT_EQ(next, store.data() + store.size()) << "round " << round;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const CandidateSegment& g = got[i];
      const Expected& w = want[i];
      ASSERT_EQ(g.id, w.id) << "round " << round << " candidate " << i;
      EXPECT_EQ(g.epoch, w.epoch) << "round " << round << " id " << w.id;
      ASSERT_EQ(g.suppliers.size(), w.suppliers.size()) << "round " << round << " id " << w.id;
      for (std::size_t k = 0; k < w.suppliers.size(); ++k) {
        EXPECT_EQ(g.suppliers[k].node, w.suppliers[k].node) << "round " << round << " id " << w.id;
        EXPECT_EQ(g.suppliers[k].send_rate, w.suppliers[k].send_rate);
        EXPECT_EQ(g.suppliers[k].buffer_position, w.suppliers[k].buffer_position)
            << "round " << round << " id " << w.id << " supplier " << w.suppliers[k].node;
        EXPECT_EQ(g.suppliers[k].queue_delay, w.suppliers[k].queue_delay);
      }
    }
    // A second build of the same input on the warm store reuses it in
    // place: no reallocation, no growth, the same candidates.
    const SupplierView* data = store.data();
    const std::size_t store_capacity = store.capacity();
    std::vector<CandidateSegment> again;
    EXPECT_EQ(collect_candidates(p, neighbors, peers, transfers, capacity, boundary, now, store,
                                 scratch, again),
              probes)
        << "round " << round;
    EXPECT_EQ(store.data(), data) << "round " << round;
    EXPECT_EQ(store.capacity(), store_capacity) << "round " << round;
    ASSERT_EQ(again.size(), got.size()) << "round " << round;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(again[i].id, got[i].id) << "round " << round;
      EXPECT_EQ(again[i].suppliers.data(), got[i].suppliers.data()) << "round " << round;
      EXPECT_EQ(again[i].suppliers.size(), got[i].suppliers.size()) << "round " << round;
    }
  }
  // The comparison must not be vacuous.
  EXPECT_GT(nonempty_rounds, 200u);
}

INSTANTIATE_TEST_SUITE_P(BufferCapacities, CandidateBuildReference,
                         ::testing::Values(std::size_t{64}, std::size_t{100}, std::size_t{600}),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           // Appending (not "B" + ...) dodges GCC 12's false
                           // -Wrestrict at -O3, which -Werror turns fatal.
                           std::string name = "B";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(CandidateBuild, NoNeighbourHeadAtOrPastTheAnchorBuildsNothing) {
  net::LatencyModel latency(std::vector<double>(3, 30.0));
  TransferPlane transfers(latency, SupplierCapacityModel::kSharedFifo, 2.0);
  transfers.ensure_nodes(3);
  std::vector<PeerNode> peers(3);
  for (net::NodeId v = 0; v < 3; ++v) peers[v].id = v;
  peers[0].start_id = 128;
  for (SegmentId id = 60; id < 128; ++id) peers[1].buffer.insert(id);
  CandidateScratch scratch;
  std::vector<SupplierView> store;
  std::vector<CandidateSegment> out;
  const std::vector<net::NodeId> neighbors = {1, 2};  // 2 holds nothing
  EXPECT_EQ(collect_candidates(peers[0], neighbors, peers, transfers, 600, kNoSegment, 0.0,
                               store, scratch, out),
            0u);
  EXPECT_TRUE(out.empty());
  peers[2].buffer.insert(128);
  EXPECT_EQ(collect_candidates(peers[0], neighbors, peers, transfers, 600, kNoSegment, 0.0,
                               store, scratch, out),
            2u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 128);
  ASSERT_EQ(out[0].suppliers.size(), 1u);
  EXPECT_EQ(out[0].suppliers[0].node, 2u);
}

}  // namespace
}  // namespace gs::stream
