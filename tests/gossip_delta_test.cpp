// BufferMapDelta: the incremental availability exchange.  Covers diff
// semantics under base shifts in both directions, the run-splitting caps,
// the accounting model's sizes, and a property test driving a StreamBuffer
// through random mark/evict/base-shift sequences and checking diff's runs
// against a bit-by-bit scan of the two windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gossip/buffer_map.hpp"
#include "gossip/buffer_map_delta.hpp"
#include "gossip/message.hpp"
#include "stream/stream_buffer.hpp"
#include "util/rng.hpp"

namespace gs::gossip {
namespace {

using Runs = std::vector<BufferMapDelta::Run>;

BufferMap make_map(SegmentId base, std::size_t window, std::initializer_list<SegmentId> ids) {
  util::DynamicBitset presence(static_cast<std::size_t>(base) + window);
  for (const SegmentId id : ids) presence.set(static_cast<std::size_t>(id));
  BufferMap map;
  map.assign_from_presence(base, window, presence);
  return map;
}

/// The runs `diff(from, to)` must produce, found one slot at a time: slot
/// i toggles when `to` and `from` (rebased onto `to`'s window) disagree on
/// id to.base() + i; maximal toggled runs split every kMaxRunLength slots.
Runs scanned_runs(const BufferMap& from, const BufferMap& to) {
  Runs runs;
  for (std::size_t i = 0; i < to.window(); ++i) {
    const SegmentId id = to.base() + static_cast<SegmentId>(i);
    if ((from.window_word(id) & 1) == (to.window_word(id) & 1)) continue;
    const bool extends =
        !runs.empty() && std::size_t{runs.back().offset} + runs.back().length == i &&
        runs.back().length < BufferMapDelta::kMaxRunLength;
    if (extends) {
      ++runs.back().length;
    } else {
      runs.push_back({static_cast<std::uint16_t>(i), 1});
    }
  }
  return runs;
}

TEST(BufferMapDelta, EmptyDiffHasNoRuns) {
  const BufferMap map = make_map(100, 64, {100, 101, 140});
  const BufferMapDelta delta = BufferMapDelta::diff(map, map);
  EXPECT_TRUE(delta.runs().empty());
  EXPECT_TRUE(delta.encodable());
}

TEST(BufferMapDelta, TogglesAreRunCompressed) {
  const BufferMap from = make_map(0, 64, {0, 1, 2});
  // One contiguous gained run [10, 13] and one lost run [1, 2].
  const BufferMap to = make_map(0, 64, {0, 10, 11, 12, 13});
  const BufferMapDelta delta = BufferMapDelta::diff(from, to);
  EXPECT_EQ(delta.runs(), (Runs{{1, 2}, {10, 4}}));
}

TEST(BufferMapDelta, ForwardBaseShiftDropsEvictionsForFree) {
  // FIFO steady state: window slides forward, the old tail falls out.
  const BufferMap from = make_map(100, 32, {100, 101, 130, 131});
  const BufferMap to = make_map(110, 32, {130, 131, 140, 141});
  const BufferMapDelta delta = BufferMapDelta::diff(from, to);
  // 100/101 dropped by the shift alone; only the gains 140/141 need a run.
  EXPECT_EQ(delta.runs(), (Runs{{30, 2}}));
}

TEST(BufferMapDelta, BackwardBaseShiftDropsStaleHeadBits) {
  // Rare evicted-max case: the newest id leaves and the window slides back.
  // 64/65 fall past the new window's end and need no run; only 55 toggles.
  const BufferMap from = make_map(50, 16, {50, 64, 65});
  const BufferMap to = make_map(45, 16, {50, 55});
  const BufferMapDelta delta = BufferMapDelta::diff(from, to);
  EXPECT_EQ(delta.runs(), (Runs{{10, 1}}));
}

TEST(BufferMapDelta, LongRunsSplitAtWireCap) {
  const std::size_t window = 600;
  const BufferMap from = make_map(0, window, {});
  util::DynamicBitset presence(window);
  for (std::size_t id = 0; id < 200; ++id) presence.set(id);
  BufferMap to;
  to.assign_from_presence(0, window, presence);
  const BufferMapDelta delta = BufferMapDelta::diff(from, to);
  std::size_t toggled = 0;
  for (const auto& run : delta.runs()) {
    EXPECT_GE(run.length, 1u);
    EXPECT_LE(run.length, BufferMapDelta::kMaxRunLength);
    toggled += run.length;
  }
  EXPECT_EQ(toggled, 200u);
  EXPECT_EQ(delta.runs(), scanned_runs(from, to));
  EXPECT_TRUE(delta.encodable());
}

TEST(BufferMapDelta, WireBitsMatchTheAccountingModel) {
  // 28 header bits (20-bit base + 8-bit run count) plus 16 per run.
  const WireFormat wire = paper_wire_format();
  const BufferMap from = make_map(0, 600, {});
  const BufferMap to = make_map(0, 600, {3, 4, 5, 90});
  const BufferMapDelta delta = BufferMapDelta::diff(from, to);
  ASSERT_EQ(delta.runs().size(), 2u);
  EXPECT_EQ(wire.buffer_map_delta_bits(delta.runs().size()), 28u + 2u * 16u);
  EXPECT_LT(wire.buffer_map_delta_bits(delta.runs().size()), wire.buffer_map_bits());
}

// The property the engine's delta accounting stands on: however the buffer
// evolves between adverts — in-order streaming, random old-hole fills, the
// FIFO evictions they trigger, head jumps that shift the window either way —
// diff charges exactly the toggled runs a slot-by-slot scan finds.
TEST(BufferMapDelta, PropertyRandomBufferEvolutionReconstructs) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t window = 64 + static_cast<std::size_t>(rng.uniform_int(0, 192));
    stream::StreamBuffer buffer(window / 2);  // capacity < window forces evictions
    SegmentId head = static_cast<SegmentId>(rng.uniform_int(0, 5000));
    BufferMap advertised;
    buffer.build_map_into(window, advertised);
    BufferMap current;
    for (int step = 0; step < 40; ++step) {
      // A burst of inserts: mostly advancing the head, sometimes filling
      // random holes behind it (which is what makes runs fragment).
      const int inserts = static_cast<int>(rng.uniform_int(1, 25));
      for (int i = 0; i < inserts; ++i) {
        if (rng.bernoulli(0.7)) {
          buffer.insert(head++);
        } else {
          const SegmentId lo = std::max<SegmentId>(0, head - static_cast<SegmentId>(window));
          buffer.insert(lo + rng.uniform_int(0, std::max<std::int64_t>(1, head - lo)));
        }
      }
      buffer.build_map_into(window, current);
      ASSERT_EQ(BufferMapDelta::diff(advertised, current).runs(),
                scanned_runs(advertised, current))
          << "trial " << trial << " step " << step << " head " << head;
      std::swap(advertised, current);
    }
  }
}

}  // namespace
}  // namespace gs::gossip
