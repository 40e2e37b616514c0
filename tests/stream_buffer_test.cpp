// StreamBuffer FIFO semantics, positions (p_ij), availability maps;
// Playback engine timing, stalls and gates; RateBudget; BandwidthSampler.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "stream/bandwidth.hpp"
#include "stream/playback.hpp"
#include "stream/stream_buffer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace gs::stream {
namespace {

TEST(StreamBuffer, InsertContainsEvict) {
  StreamBuffer buffer(3);
  EXPECT_EQ(buffer.insert(10), kNoSegment);
  EXPECT_EQ(buffer.insert(11), kNoSegment);
  EXPECT_EQ(buffer.insert(12), kNoSegment);
  EXPECT_EQ(buffer.size(), 3u);
  // Fourth insert evicts the FIFO-oldest (10).
  EXPECT_EQ(buffer.insert(13), 10);
  EXPECT_FALSE(buffer.contains(10));
  EXPECT_TRUE(buffer.contains(13));
}

TEST(StreamBuffer, DuplicateInsertIgnored) {
  StreamBuffer buffer(3);
  buffer.insert(5);
  EXPECT_EQ(buffer.insert(5), kNoSegment);
  EXPECT_EQ(buffer.size(), 1u);
}

TEST(StreamBuffer, FifoIsInsertionOrderNotIdOrder) {
  StreamBuffer buffer(2);
  buffer.insert(20);
  buffer.insert(10);  // out of id order
  EXPECT_EQ(buffer.insert(30), 20) << "oldest *inserted* evicted";
  EXPECT_TRUE(buffer.contains(10));
}

TEST(StreamBuffer, PositionFromTail) {
  // Paper Table 2: position is distance from the buffer tail; the paper's
  // rarity (eq. 8) uses position/B as replacement probability, so the
  // newest segment must have the smallest position.
  StreamBuffer buffer(10);
  buffer.insert(1);
  buffer.insert(2);
  buffer.insert(3);
  EXPECT_EQ(buffer.position_from_tail(3), 1u);
  EXPECT_EQ(buffer.position_from_tail(2), 2u);
  EXPECT_EQ(buffer.position_from_tail(1), 3u);
  EXPECT_EQ(buffer.position_from_tail(99), 0u) << "absent segment";
}

TEST(StreamBuffer, PositionSurvivesEviction) {
  StreamBuffer buffer(3);
  buffer.insert(1);
  buffer.insert(2);
  buffer.insert(3);
  buffer.insert(4);  // evicts 1
  EXPECT_EQ(buffer.position_from_tail(1), 0u);
  EXPECT_EQ(buffer.position_from_tail(2), 3u);
  EXPECT_EQ(buffer.position_from_tail(4), 1u);
}

TEST(StreamBuffer, OldestPositionNeverExceedsCapacity) {
  StreamBuffer buffer(50);
  for (SegmentId id = 0; id < 500; ++id) {
    buffer.insert(id);
    const SegmentId oldest = buffer.oldest();
    EXPECT_LE(buffer.position_from_tail(oldest), 50u);
  }
}

TEST(StreamBuffer, MaxIdTracking) {
  StreamBuffer buffer(3);
  EXPECT_EQ(buffer.max_id(), kNoSegment);
  buffer.insert(7);
  buffer.insert(3);
  EXPECT_EQ(buffer.max_id(), 7);
  buffer.insert(9);
  EXPECT_EQ(buffer.max_id(), 9);
  // Evicting the max triggers a rescan.
  StreamBuffer small(2);
  small.insert(10);
  small.insert(4);
  small.insert(5);  // evicts 10, the max
  EXPECT_EQ(small.max_id(), 5);
}

TEST(StreamBuffer, PresenceBitsetTracksContents) {
  StreamBuffer buffer(2);
  buffer.insert(0);
  buffer.insert(1);
  buffer.insert(2);  // evicts 0
  const auto& presence = buffer.presence();
  EXPECT_FALSE(presence.test(0));
  EXPECT_TRUE(presence.test(1));
  EXPECT_TRUE(presence.test(2));
}

TEST(StreamBuffer, BuildMapWindowEndsAtNewest) {
  StreamBuffer buffer(600);
  for (SegmentId id = 0; id < 700; ++id) buffer.insert(id);
  gossip::BufferMap map;
  buffer.build_map_into(600, map);
  EXPECT_EQ(map.base(), 100);
  EXPECT_EQ(map.window(), 600u);
  EXPECT_EQ(map.window_word(99), ~std::uint64_t{0} << 1) << "ids below the base read 0";
  EXPECT_EQ(map.window_word(690), (std::uint64_t{1} << 10) - 1) << "699 is the newest";
}

TEST(StreamBuffer, BuildMapEmptyBuffer) {
  StreamBuffer buffer(10);
  gossip::BufferMap map;
  buffer.build_map_into(600, map);
  EXPECT_EQ(map.base(), 0);
  for (SegmentId from = 0; from < 600; from += 64) EXPECT_EQ(map.window_word(from), 0u);
}

// Positions must be exact through every doubling of the stamp window: each
// regrowth re-stamps the held ids from the ring, so an id that moved to a
// new slot keeps its FIFO distance.
TEST(StreamBuffer, WindowRegrowthKeepsPositionsExact) {
  StreamBuffer buffer(600);
  std::vector<SegmentId> inserted;
  SegmentId id = 0;
  std::size_t last_bytes = buffer.memory_bytes();
  int regrowths = 0;
  for (int step = 0; step < 40; ++step) {
    id += step * step;  // ever wider jumps: the held span outgrows the window
    buffer.insert(id);
    inserted.push_back(id);
    const std::size_t bytes = buffer.memory_bytes() - buffer.presence().memory_bytes();
    if (bytes > last_bytes) ++regrowths;
    last_bytes = bytes;
    for (std::size_t k = 0; k < inserted.size(); ++k) {
      ASSERT_EQ(buffer.position_from_tail(inserted[k]), inserted.size() - k)
          << "step " << step << " id " << inserted[k];
    }
  }
  EXPECT_GE(regrowths, 5) << "the workload should double the window several times";
}

// Evicting the lowest held id moves the window's low edge, so a later insert
// that is far from the evicted id but close to the survivors needs no
// regrowth.  Here the lowest id is not the FIFO-oldest one.
TEST(StreamBuffer, EvictingLowestIdMovesLowEdge) {
  StreamBuffer buffer(3);
  buffer.insert(10);
  buffer.insert(5);
  buffer.insert(20);
  EXPECT_EQ(buffer.insert(21), 10);
  EXPECT_EQ(buffer.insert(22), 5) << "the lowest id is evicted; 20 becomes the low edge";
  const std::size_t window_bytes = buffer.memory_bytes() - buffer.presence().memory_bytes();
  // Inserting 80 evicts 20: the held span 21..80 fits the 64-slot window,
  // 5..80 would not.
  EXPECT_EQ(buffer.insert(80), 20);
  EXPECT_EQ(buffer.memory_bytes() - buffer.presence().memory_bytes(), window_bytes);
  EXPECT_EQ(buffer.position_from_tail(21), 3u);
  EXPECT_EQ(buffer.position_from_tail(22), 2u);
  EXPECT_EQ(buffer.position_from_tail(80), 1u);

  // A sliding in-order stream keeps the span at B - 1 forever.
  StreamBuffer sliding(2);
  sliding.insert(0);
  sliding.insert(1);
  const std::size_t sliding_bytes = sliding.memory_bytes() - sliding.presence().memory_bytes();
  for (SegmentId next = 2; next < 100000; ++next) sliding.insert(next);
  EXPECT_EQ(sliding.memory_bytes() - sliding.presence().memory_bytes(), sliding_bytes);
  EXPECT_EQ(sliding.position_from_tail(99998), 2u);
  EXPECT_EQ(sliding.position_from_tail(99999), 1u);
}

// A full paper-sized buffer costs its presence bits, a B-slot int32 ring
// and a 1024-slot uint16 stamp window (held span 599), nothing more.
TEST(StreamBuffer, FullBufferFootprint) {
  StreamBuffer buffer(600);
  for (SegmentId id = 0; id < 1800; ++id) buffer.insert(id);
  ASSERT_EQ(buffer.size(), 600u);
  EXPECT_LE(buffer.memory_bytes(), buffer.presence().memory_bytes() + 600 * 4 + 1024 * 2);
}

TEST(StreamBufferDeathTest, CapacityBeyondUint16Aborts) {
  EXPECT_DEATH(StreamBuffer(65536), "uint16");
}

TEST(StreamBufferDeathTest, IdBeyondInt32Aborts) {
  StreamBuffer buffer(8);
  EXPECT_DEATH(buffer.insert(SegmentId{1} << 31), "int32");
}

// ---------------------------------------------------------------- playback

TEST(Playback, StartAndAdvance) {
  Playback pb(10.0);
  EXPECT_FALSE(pb.started());
  pb.start(0, 0.0);
  EXPECT_TRUE(pb.started());
  std::vector<std::pair<SegmentId, double>> plays;
  const auto has = [](SegmentId) { return true; };
  const auto on_play = [&](SegmentId id, double t) { plays.emplace_back(id, t); };
  pb.advance(0.35, has, on_play);
  // Due times 0.0, 0.1, 0.2, 0.3 have elapsed.
  ASSERT_EQ(plays.size(), 4u);
  EXPECT_EQ(plays[0].first, 0);
  EXPECT_DOUBLE_EQ(plays[3].second, 0.3);
  EXPECT_EQ(pb.cursor(), 4);
}

TEST(Playback, ExactTimestampsAcrossLazyCalls) {
  // Calling advance late must still assign each segment its theoretical
  // due time (event-free exactness).
  Playback pb(10.0);
  pb.start(0, 0.0);
  std::vector<double> times;
  pb.advance(1.05, [](SegmentId) { return true; },
             [&](SegmentId, double t) { times.push_back(t); });
  ASSERT_EQ(times.size(), 11u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(times[i], 0.1 * static_cast<double>(i), 1e-9);
  }
}

TEST(Playback, StallResumesAtArrival) {
  Playback pb(10.0);
  pb.start(0, 0.0);
  std::vector<std::pair<SegmentId, double>> plays;
  bool have1 = false;
  const auto has = [&](SegmentId id) { return id == 0 || (id == 1 && have1) || id > 1; };
  const auto on_play = [&](SegmentId id, double t) { plays.emplace_back(id, t); };
  pb.advance(0.5, has, on_play);  // plays 0 at 0.0, stalls on 1 (due 0.1)
  ASSERT_EQ(plays.size(), 1u);
  // Segment 1 arrives at t = 0.7: stall of 0.6 s.
  have1 = true;
  pb.notify_arrival(1, 0.7);
  pb.advance(0.7, has, on_play);
  ASSERT_EQ(plays.size(), 2u);
  EXPECT_DOUBLE_EQ(plays[1].second, 0.7) << "resumed at arrival, not retroactively";
  EXPECT_NEAR(pb.stall_time(), 0.6, 1e-9);
  // Subsequent segments continue from the resumed schedule.
  pb.advance(0.85, has, on_play);
  ASSERT_EQ(plays.size(), 3u);
  EXPECT_DOUBLE_EQ(plays[2].second, 0.8);
}

TEST(Playback, StallDetectedLazily) {
  // Even if advance() was never called while the segment was missing, an
  // arrival after the due time counts the stall.
  Playback pb(10.0);
  pb.start(0, 0.0);
  pb.notify_arrival(0, 0.5);  // first segment arrives late
  std::vector<double> times;
  pb.advance(0.5, [](SegmentId) { return true; },
             [&](SegmentId, double t) { times.push_back(t); });
  ASSERT_GE(times.size(), 1u);
  EXPECT_DOUBLE_EQ(times[0], 0.5);
  EXPECT_NEAR(pb.stall_time(), 0.5, 1e-9);
}

TEST(Playback, GateBlocksUntilReleased) {
  Playback pb(10.0);
  pb.start(0, 0.0);
  pb.set_gate(5);
  std::vector<SegmentId> played;
  const auto has = [](SegmentId) { return true; };
  const auto on_play = [&](SegmentId id, double) { played.push_back(id); };
  pb.advance(2.0, has, on_play);
  ASSERT_EQ(played.size(), 5u) << "segments 0..4 play; 5 is gated";
  EXPECT_EQ(pb.cursor(), 5);
  pb.release_gate(2.0);
  pb.advance(2.0, has, on_play);
  ASSERT_EQ(played.size(), 6u);
  EXPECT_EQ(played.back(), 5);
}

TEST(Playback, GateReleaseSetsDueToNow) {
  Playback pb(10.0);
  pb.start(0, 0.0);
  pb.set_gate(2);
  const auto has = [](SegmentId) { return true; };
  std::vector<double> times;
  const auto on_play = [&](SegmentId, double t) { times.push_back(t); };
  pb.advance(5.0, has, on_play);  // plays 0,1; gate at 2
  pb.release_gate(5.0);
  pb.advance(5.0, has, on_play);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[2], 5.0) << "gated segment plays at release time";
}

TEST(Playback, PlaysEverySegmentDueByNow) {
  Playback pb(10.0);
  pb.start(0, 0.0);
  std::size_t plays = 0;
  pb.advance(0.95, [](SegmentId) { return true; }, [&](SegmentId, double) { ++plays; });
  EXPECT_EQ(plays, 10u);
  EXPECT_EQ(pb.cursor(), 10);
}

/// Reference model of Playback's arrival-driven stall accounting: the same
/// cursor rules over an unbounded std::map arrival record (erased as the
/// cursor passes), which the bounded ring must reproduce.
class MapPlayback {
 public:
  explicit MapPlayback(double rate) : interval_(1.0 / rate) {}

  void start(SegmentId first, double now) {
    started_ = true;
    cursor_ = first;
    next_due_ = now;
  }

  void notify_arrival(SegmentId id, double now) {
    if (!started_ || id < cursor_) return;
    if (id == cursor_) {
      if (next_due_ < now) {
        stall_time_ += now - next_due_;
        next_due_ = now;
      }
      return;
    }
    if (id >= cursor_ + 64) return;  // Playback's arrival window
    arrivals_[id] = now;
  }

  void advance(double now, const std::function<bool(SegmentId)>& has,
               const std::function<void(SegmentId, double)>& on_play) {
    if (!started_) return;
    while (next_due_ <= now && has(cursor_)) {
      const auto it = arrivals_.find(cursor_);
      if (it != arrivals_.end()) {
        if (it->second > next_due_) {
          stall_time_ += it->second - next_due_;
          next_due_ = it->second;
        }
        arrivals_.erase(it);
        if (next_due_ > now) break;  // resumed beyond the current horizon
      }
      on_play(cursor_, next_due_);
      ++cursor_;
      next_due_ += interval_;
      arrivals_.erase(arrivals_.begin(), arrivals_.lower_bound(cursor_));
    }
  }

  [[nodiscard]] SegmentId cursor() const { return cursor_; }
  [[nodiscard]] double stall_time() const { return stall_time_; }

 private:
  double interval_;
  bool started_ = false;
  SegmentId cursor_ = kNoSegment;
  double next_due_ = 0.0;
  double stall_time_ = 0.0;
  std::map<SegmentId, double> arrivals_;
};

TEST(Playback, FlatArrivalRingMatchesMapMode) {
  // Arrival-driven stall accounting must not depend on the bookkeeping
  // structure: drive the ring and the map reference through identical
  // late-arrival schedules.
  util::Rng rng(654);
  MapPlayback map_mode(10.0);
  Playback flat_mode(10.0);
  map_mode.start(0, 0.0);
  flat_mode.start(0, 0.0);
  std::vector<bool> have(400, false);
  const auto has = [&](SegmentId id) {
    return id >= 0 && static_cast<std::size_t>(id) < have.size() &&
           have[static_cast<std::size_t>(id)];
  };
  double now = 0.0;
  SegmentId next_arrival = 0;
  for (int step = 0; step < 300; ++step) {
    now += 0.01 * static_cast<double>(rng.uniform_int(1, 20));
    // Deliver a random burst, sometimes leaving gaps that stall playback.
    const auto burst = rng.uniform_int(0, 2);
    for (SegmentId k = 0; k < burst && next_arrival < 400; ++k) {
      have[static_cast<std::size_t>(next_arrival)] = true;
      map_mode.notify_arrival(next_arrival, now);
      flat_mode.notify_arrival(next_arrival, now);
      ++next_arrival;
    }
    std::vector<std::pair<SegmentId, double>> map_plays;
    std::vector<std::pair<SegmentId, double>> flat_plays;
    map_mode.advance(now, has, [&](SegmentId id, double t) { map_plays.emplace_back(id, t); });
    flat_mode.advance(now, has, [&](SegmentId id, double t) { flat_plays.emplace_back(id, t); });
    ASSERT_EQ(map_plays, flat_plays) << "step " << step;
    EXPECT_EQ(map_mode.cursor(), flat_mode.cursor());
    EXPECT_DOUBLE_EQ(map_mode.stall_time(), flat_mode.stall_time());
  }
  EXPECT_GT(map_mode.stall_time(), 0.0) << "workload should have exercised stalls";
}

// ---------------------------------------------------------------- budgets

TEST(RateBudget, ReplenishAndSpend) {
  RateBudget budget(10.0, 1.0);
  EXPECT_EQ(budget.whole(), 0u);
  budget.replenish(1.0);
  EXPECT_EQ(budget.whole(), 10u);
  budget.spend(3.0);
  EXPECT_EQ(budget.whole(), 7u);
}

TEST(RateBudget, CarryCap) {
  RateBudget budget(10.0, 1.0);
  budget.replenish(1.0);
  budget.replenish(1.0);  // no banking beyond one period
  EXPECT_EQ(budget.whole(), 10u);
  RateBudget banked(10.0, 2.0);
  banked.replenish(1.0);
  banked.replenish(1.0);
  EXPECT_EQ(banked.whole(), 20u);
}

TEST(RateBudget, FractionalRateAccumulates) {
  RateBudget budget(0.5, 4.0);
  budget.replenish(1.0);
  EXPECT_EQ(budget.whole(), 0u);
  budget.replenish(1.0);
  EXPECT_EQ(budget.whole(), 1u);
}

TEST(BandwidthSampler, PaperInboundStatistics) {
  // I in [10, 33.3] with mean 15 (300Kbps..1Mbps, average 450Kbps).
  const BandwidthSampler sampler = BandwidthSampler::paper_inbound();
  util::Rng rng(5);
  util::RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    const double x = sampler.sample(rng);
    EXPECT_GE(x, 10.0);
    EXPECT_LE(x, sampler.max());
    stats.add(x);
  }
  EXPECT_NEAR(stats.mean(), 15.0, 0.15);
}

TEST(BandwidthSampler, ArbitraryMeanHit) {
  const BandwidthSampler sampler(2.0, 10.0, 7.0);
  util::Rng rng(6);
  util::RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(sampler.sample(rng));
  EXPECT_NEAR(stats.mean(), 7.0, 0.1);
}

}  // namespace
}  // namespace gs::stream
