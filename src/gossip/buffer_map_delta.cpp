#include "gossip/buffer_map_delta.hpp"

#include <bit>

#include "util/check.hpp"

namespace gs::gossip {

BufferMapDelta BufferMapDelta::diff(const BufferMap& from, const BufferMap& to) {
  GS_CHECK_EQ(from.window(), to.window());
  BufferMapDelta delta;
  const SegmentId base = to.base();
  delta.window_ = to.window();
  // Toggles are positions (relative to the new base) where the new map
  // differs from the old map rebased into the new window: slots the old
  // window does not cover read as absent, so forward shifts drop FIFO
  // evictions for free and backward shifts drop stale head bits.
  //
  // This runs once per peer per advert under delta accounting, so it works
  // word-at-a-time: XOR 64 rebased slots per step, then walk only the
  // toggled bits (a handful per scheduling period in steady state).
  std::size_t run_start = 0;
  std::size_t run_length = 0;
  const auto flush = [&] {
    if (run_length == 0) return;
    delta.runs_.push_back(
        {static_cast<std::uint16_t>(run_start), static_cast<std::uint16_t>(run_length)});
    run_length = 0;
  };
  for (std::size_t word_pos = 0; word_pos < delta.window_; word_pos += 64) {
    const SegmentId word_id = base + static_cast<SegmentId>(word_pos);
    std::uint64_t toggles = from.window_word(word_id) ^ to.window_word(word_id);
    // `from` rebased can carry bits past the window end on backward shifts.
    if (delta.window_ - word_pos < 64) {
      toggles &= ~std::uint64_t{0} >> (64 - (delta.window_ - word_pos));
    }
    while (toggles != 0) {
      const std::size_t pos =
          word_pos + static_cast<std::size_t>(std::countr_zero(toggles));
      toggles &= toggles - 1;
      const bool contiguous = run_length > 0 && pos == run_start + run_length;
      if (!contiguous || run_length == kMaxRunLength) flush();
      if (run_length == 0) run_start = pos;
      ++run_length;
    }
  }
  flush();
  return delta;
}

}  // namespace gs::gossip
