// Property tests: StreamBuffer against a reference model under randomized
// workloads; Playback under randomized arrival schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <iterator>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "stream/playback.hpp"
#include "stream/stream_buffer.hpp"
#include "util/rng.hpp"

namespace gs::stream {
namespace {

/// Straightforward reference implementation of the FIFO buffer.
class ReferenceBuffer {
 public:
  explicit ReferenceBuffer(std::size_t capacity) : capacity_(capacity) {}

  SegmentId insert(SegmentId id) {
    if (present_.count(id) != 0) return kNoSegment;
    order_.push_back(id);
    present_.insert(id);
    if (order_.size() > capacity_) {
      const SegmentId victim = order_.front();
      order_.pop_front();
      present_.erase(victim);
      return victim;
    }
    return kNoSegment;
  }

  [[nodiscard]] bool contains(SegmentId id) const { return present_.count(id) != 0; }

  [[nodiscard]] std::size_t position_from_tail(SegmentId id) const {
    for (std::size_t i = 0; i < order_.size(); ++i) {
      if (order_[order_.size() - 1 - i] == id) return i + 1;
    }
    return 0;
  }

  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] SegmentId oldest() const { return order_.empty() ? kNoSegment : order_.front(); }
  [[nodiscard]] SegmentId newest() const { return order_.empty() ? kNoSegment : order_.back(); }
  [[nodiscard]] SegmentId min_id() const {
    return present_.empty() ? kNoSegment : *present_.begin();
  }
  [[nodiscard]] SegmentId max_id() const {
    return present_.empty() ? kNoSegment : *present_.rbegin();
  }
  /// The k-th held id in insertion order (k = 0 is the oldest).
  [[nodiscard]] SegmentId held(std::size_t k) const { return order_[k]; }
  /// Held ids at or above `base`.
  [[nodiscard]] std::size_t count_from(SegmentId base) const {
    return static_cast<std::size_t>(
        std::distance(present_.lower_bound(base), present_.end()));
  }

 private:
  std::size_t capacity_;
  std::deque<SegmentId> order_;
  std::set<SegmentId> present_;
};

/// (seed, capacity); capacity 0 draws B from [1, 64] with the seed.
class BufferModelTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(BufferModelTest, AgreesWithReferenceUnderRandomOps) {
  util::Rng rng(std::get<0>(GetParam()));
  const std::size_t capacity = std::get<1>(GetParam()) != 0
                                   ? std::get<1>(GetParam())
                                   : static_cast<std::size_t>(rng.uniform_int(1, 64));
  StreamBuffer buffer(capacity);
  ReferenceBuffer reference(capacity);
  SegmentId horizon = 0;
  for (int op = 0; op < 3000; ++op) {
    // Mostly-forward id stream with re-inserts, short gaps, long jumps (the
    // held span outgrows the stamp window) and re-inserts far below the
    // held minimum (the window must widen downwards).
    SegmentId id;
    const double roll = rng.uniform();
    if (roll < 0.6) {
      id = horizon++;
    } else if (roll < 0.75 && horizon > 0) {
      id = rng.uniform_int(0, horizon - 1);  // duplicate / old id
    } else if (roll < 0.85) {
      horizon += rng.uniform_int(1, 5);  // skip ahead (out-of-order arrival)
      id = horizon++;
    } else if (roll < 0.93) {
      horizon += rng.uniform_int(100, 3000);  // jump of hundreds to thousands
      id = horizon++;
    } else {
      const SegmentId low = reference.min_id() == kNoSegment ? horizon : reference.min_id();
      id = std::max<SegmentId>(0, low - rng.uniform_int(100, 3000));
    }
    ASSERT_EQ(buffer.insert(id), reference.insert(id)) << "op " << op << " id " << id;
    ASSERT_EQ(buffer.size(), reference.size());
    ASSERT_EQ(buffer.max_id(), reference.max_id()) << "op " << op;
    ASSERT_EQ(buffer.oldest(), reference.oldest()) << "op " << op;
    ASSERT_EQ(buffer.newest(), reference.newest()) << "op " << op;
    // Spot-check membership and positions on random ids and on held ids.
    std::vector<SegmentId> probes;
    for (int k = 0; k < 3; ++k) {
      probes.push_back(rng.uniform_int(0, std::max<SegmentId>(1, horizon)));
      probes.push_back(reference.held(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(reference.size()) - 1))));
    }
    for (const SegmentId q : probes) {
      ASSERT_EQ(buffer.contains(q), reference.contains(q)) << "op " << op << " id " << q;
      ASSERT_EQ(buffer.position_from_tail(q), reference.position_from_tail(q))
          << "op " << op << " id " << q;
    }
    if (op % 50 == 0) {
      gossip::BufferMap map;
      buffer.build_map_into(64, map);
      const SegmentId base = std::max<SegmentId>(0, reference.max_id() - 63);
      ASSERT_EQ(map.base(), base) << "op " << op;
      ASSERT_EQ(static_cast<std::size_t>(std::popcount(map.window_word(base))),
                reference.count_from(base))
          << "op " << op;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferModelTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                                            ::testing::Values(0, 1, 600)));

class PlaybackPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlaybackPropertyTest, InvariantsUnderRandomArrivals) {
  // Segments 0..N-1 arrive at random times; advance() is called at random
  // instants.  Invariants: play times are strictly increasing by >= 1/p
  // between consecutive segments, a segment never plays before it arrived,
  // and all segments eventually play.
  util::Rng rng(GetParam());
  const double rate = 10.0;
  const int n = 200;
  std::vector<double> arrival(n);
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    t += rng.exponential(12.0);
    arrival[static_cast<std::size_t>(i)] = t;
  }
  // Shuffle arrival order while keeping each segment's own arrival time:
  // swap times between neighbours to emulate out-of-order delivery.
  for (int i = 0; i + 1 < n; ++i) {
    if (rng.bernoulli(0.3)) {
      std::swap(arrival[static_cast<std::size_t>(i)], arrival[static_cast<std::size_t>(i) + 1]);
    }
  }

  Playback pb(rate);
  pb.start(0, 0.0);
  std::vector<double> play_time(n, -1.0);
  std::vector<char> have(static_cast<std::size_t>(n), 0);
  const auto has = [&](SegmentId id) {
    return id >= 0 && id < n && have[static_cast<std::size_t>(id)] != 0;
  };
  const auto on_play = [&](SegmentId id, double when) {
    ASSERT_GE(id, 0);
    ASSERT_LT(id, n);
    play_time[static_cast<std::size_t>(id)] = when;
  };

  // Event loop: interleave arrivals (in time order) with random advances.
  std::multimap<double, SegmentId> events;
  for (int i = 0; i < n; ++i) {
    events.emplace(arrival[static_cast<std::size_t>(i)], static_cast<SegmentId>(i));
  }
  double clock = 0.0;
  for (const auto& [when, id] : events) {
    // Random advance strictly before the next arrival.
    if (rng.bernoulli(0.5) && when > clock) {
      const double mid = clock + (when - clock) * rng.uniform();
      pb.advance(mid, has, on_play);
    }
    clock = when;
    have[static_cast<std::size_t>(id)] = 1;
    pb.notify_arrival(id, clock);
    pb.advance(clock, has, on_play);
  }
  pb.advance(clock + static_cast<double>(n) / rate + 1.0, has, on_play);

  for (int i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    ASSERT_GE(play_time[idx], 0.0) << "segment " << i << " never played";
    EXPECT_GE(play_time[idx] + 1e-9, arrival[idx]) << "played before arrival";
    if (i > 0) {
      EXPECT_GE(play_time[idx] - play_time[idx - 1], 1.0 / rate - 1e-9)
          << "playback faster than p between " << i - 1 << " and " << i;
    }
  }
  EXPECT_GE(pb.stall_time(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlaybackPropertyTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18, 19, 20));

}  // namespace
}  // namespace gs::stream
