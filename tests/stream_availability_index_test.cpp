// Property test for the availability plane: an AvailabilityIndex is driven
// by a randomized delta stream (deliveries, evictions, leaves, joins,
// repair edges, boundary learns, window slides) and, at every checkpoint,
// each built view must satisfy the exact-mirror property and its plan-gate
// work summary the *conservative* contract behind the engine's quiescence
// gate:
//   - the supplied bitset exactly equals the OR of the alive neighbours'
//     buffer presence over the window (this part is never approximate);
//   - the work mask covers every word that really holds supplied ∧
//     ¬received work — under-reporting is the bug class that would make
//     the gate skip a peer with schedulable work and drift fixed-seed
//     metrics (stream_determinism_test's Golden digests pin that end to
//     end); over-reporting is allowed between bulk recomputes and only
//     costs a wasted build;
//   - work_words equals the mask's popcount and the pool has_work lane
//     mirrors its zero/nonzero state;
//   - try_quiesce clears the summary iff the view truly has no work, and
//     deliveries after a quiesce re-arm the summary (the set-only wake
//     path).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/graph.hpp"
#include "net/topology.hpp"
#include "stream/availability_index.hpp"
#include "stream/peer_node.hpp"
#include "util/rng.hpp"

namespace gs::stream {
namespace {

constexpr std::size_t kWordBits = 64;

/// Absolute bit test treating out-of-range positions as clear, mirroring
/// how the index reads owner received sets that have not grown yet.
bool test_oob0(const util::DynamicBitset& bits, std::size_t pos) {
  return (bits.extract_word(pos - pos % kWordBits) >> (pos % kWordBits)) & 1u;
}

struct Swarm {
  net::Graph graph{0};
  PeerPool pool;
  std::vector<PeerNode> peers;
  AvailabilityIndex index;
  std::vector<bool> built;       // view exists (alive, non-source, registered)
  std::vector<SegmentId> cursor; // monotone window anchor fed to sync_window
};

/// (seed, buffer_capacity the index derives its window span from).
class AvailabilityWorkSummaryTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

void verify_views(Swarm& s) {
  for (net::NodeId v = 0; v < s.peers.size(); ++v) {
    if (!s.built[v]) continue;
    const AvailabilityIndex::View& w = s.index.view(v);

    // Alive-neighbour list equals the graph adjacency filtered by liveness.
    std::vector<net::NodeId> alive;
    for (const net::NodeId nb : s.graph.neighbors(v)) {
      if (s.peers[nb].alive()) alive.push_back(nb);
    }
    ASSERT_EQ(w.alive_neighbors, alive) << "view " << v << " neighbour list drifted";

    // The supplied bitset exactly equals the OR of alive neighbours'
    // presence over the window; the work mask must *cover* every word that
    // really holds supplied ∧ ¬received work (conservative contract).
    bool exact_any = false;
    std::uint32_t mask_words = 0;
    const std::size_t words = (w.supplied.size() + kWordBits - 1) / kWordBits;
    for (std::size_t word = 0; word < words; ++word) {
      std::uint64_t expect_sup = 0;
      for (std::size_t bit = 0; bit < kWordBits; ++bit) {
        const std::size_t slot = word * kWordBits + bit;
        if (slot >= w.supplied.size()) break;
        const std::size_t id = w.window_base + slot;
        bool held = false;
        for (const net::NodeId nb : alive) {
          if (test_oob0(s.peers[nb].buffer.presence(), id)) {
            held = true;
            break;
          }
        }
        if (held) expect_sup |= std::uint64_t{1} << bit;
      }
      ASSERT_EQ(w.supplied.extract_word(word * kWordBits), expect_sup)
          << "view " << v << " supplied word " << word << " drifted";
      const std::uint64_t rec =
          s.peers[v].received.extract_word(w.window_base + word * kWordBits);
      const bool has = (expect_sup & ~rec) != 0;
      if (has) {
        exact_any = true;
        ASSERT_TRUE(w.work_mask.test(word))
            << "view " << v << " work mask under-reports word " << word
            << " — the gate would skip schedulable work";
      }
      if (w.work_mask.test(word)) ++mask_words;
    }
    ASSERT_EQ(w.work_words, mask_words)
        << "view " << v << " work_words out of sync with its mask";
    ASSERT_EQ(s.pool.has_work(v) != 0, w.work_words != 0)
        << "view " << v << " pool has_work lane out of sync";

    // try_quiesce is the exactness restorer: it must clear the summary iff
    // the view truly has no work anywhere in the supplied range.  After the
    // call the summary is exact, so later checkpoints also exercise the
    // set-only re-arm path in apply_gain.
    const bool cleared = s.index.try_quiesce(v, s.peers[v].received, 0);
    if (exact_any) {
      ASSERT_FALSE(cleared) << "view " << v << " quiesced away real work";
      ASSERT_GT(s.index.view(v).work_words, 0u);
    } else {
      ASSERT_EQ(s.index.view(v).work_words, 0u)
          << "view " << v << " failed to quiesce with no work";
      ASSERT_EQ(s.pool.has_work(v), 0) << "view " << v << " lane survived quiesce";
    }
  }
}

TEST_P(AvailabilityWorkSummaryTest, CoversFromScratchRecomputeUnderRandomDeltas) {
  const auto [seed, buffer_capacity] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed));

  constexpr std::size_t kCore = 20;    // wired and alive from the start
  constexpr std::size_t kJoiners = 4;  // dead slots admitted mid-run
  constexpr std::size_t kTotal = kCore + kJoiners;

  Swarm s;
  s.graph = net::preferential_attachment(kCore, 2, rng);
  net::repair_min_degree(s.graph, 4, rng);
  for (std::size_t j = 0; j < kJoiners; ++j) s.graph.add_node();
  s.pool.resize(kTotal);
  s.peers.resize(kTotal);
  s.built.assign(kTotal, false);
  s.cursor.assign(kTotal, 0);
  for (net::NodeId v = 0; v < kTotal; ++v) {
    s.peers[v].bind(s.pool, v);
    s.peers[v].id = v;
    s.peers[v].buffer = StreamBuffer(48);  // small capacity: frequent evictions
  }
  s.pool.is_source(0) = 1;  // supplies neighbours but owns no view
  for (std::size_t j = kCore; j < kTotal; ++j) s.pool.alive(j) = 0;

  // Seed some pre-build buffer state so build() starts from non-trivial
  // supplier counts and work words.
  for (net::NodeId v = 0; v < kCore; ++v) {
    for (auto k = rng.uniform_int(0, 12); k > 0; --k) {
      (void)s.peers[v].mark_received(static_cast<SegmentId>(rng.uniform_int(0, 63)));
    }
  }

  s.index.build(s.graph, s.peers, buffer_capacity, s.pool);
  for (net::NodeId v = 1; v < kCore; ++v) s.built[v] = true;
  verify_views(s);

  std::vector<net::NodeId> joinable;
  for (std::size_t j = kCore; j < kTotal; ++j) joinable.push_back(j);
  std::size_t alive_count = kCore - 1;
  SegmentId stream_head = 64;

  const auto random_live = [&]() -> net::NodeId {
    for (;;) {
      const auto v = static_cast<net::NodeId>(rng.uniform_int(0, kTotal - 1));
      if (s.peers[v].alive() && !s.peers[v].is_source()) return v;
    }
  };

  for (int op = 0; op < 600; ++op) {
    const int kind = rng.uniform_int(0, 99);
    if (kind < 55) {
      // Delivery: a random live peer (or the source) gains a segment near
      // the head; the buffer may evict.  Mirrors the engine's delta order:
      // gain first, then the eviction.  The owner's own receive fires no
      // summary update — the conservative design leaves stale marks for
      // try_quiesce to collect.
      const bool source_gain = rng.uniform_int(0, 9) == 0;
      const net::NodeId v = source_gain ? 0 : random_live();
      stream_head += rng.uniform_int(0, 2);
      const auto id = static_cast<SegmentId>(
          std::max<SegmentId>(0, stream_head - rng.uniform_int(0, 40)));
      SegmentId evicted = kNoSegment;
      if (s.peers[v].mark_received(id, &evicted)) {
        s.index.on_gain(s.graph, v, id);
        if (evicted != kNoSegment) s.index.on_evict(s.graph, s.peers, v, evicted);
      }
    } else if (kind < 70) {
      // Window slide: the owner's playback advanced.
      const net::NodeId v = random_live();
      s.cursor[v] += rng.uniform_int(0, 96);
      s.index.sync_window(s.peers, v, s.cursor[v]);
    } else if (kind < 80) {
      // Boundary learn.
      const net::NodeId v = random_live();
      const int b =
          std::max(s.peers[v].known_boundary(), static_cast<int>(rng.uniform_int(0, 3)));
      s.peers[v].known_boundary() = b;
      s.index.on_boundary(s.graph, v, b);
    } else if (kind < 90) {
      // Repair edge between two live peers.
      const net::NodeId u = random_live();
      const net::NodeId v = random_live();
      if (u != v && s.graph.add_edge(u, v)) s.index.connect(s.peers, u, v);
    } else if (kind < 95 && !joinable.empty()) {
      // Join: wire a dead slot to a few live peers, then register it.
      const net::NodeId v = joinable.back();
      joinable.pop_back();
      for (int e = 0; e < 4; ++e) (void)s.graph.add_edge(v, random_live());
      s.pool.alive(v) = 1;
      s.index.add_peer(s.graph, s.peers, v);
      s.built[v] = true;
      ++alive_count;
    } else if (alive_count > 3) {
      // Leave: unregister while the graph still holds the edges.
      const net::NodeId v = random_live();
      s.index.remove_peer(s.graph, s.peers, v);
      s.pool.alive(v) = 0;
      s.built[v] = false;
      --alive_count;
    }
    if (op % 50 == 49) verify_views(s);
  }
  verify_views(s);
}

// 64 gives the 256-id window of a short buffer, where slides and
// out-of-window drops are frequent; 600 is the paper's B, the buffer every
// stream_determinism_test RunSpec runs with (an 832-id window).
INSTANTIATE_TEST_SUITE_P(SeedsBySpan, AvailabilityWorkSummaryTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),
                                            ::testing::Values(std::size_t{64},
                                                              std::size_t{600})));

}  // namespace
}  // namespace gs::stream
