// Incremental buffer-map exchange: what changed since the last advert.
//
// A full BufferMap costs 620 bits per neighbour per scheduling period
// (§5.3).  Between two consecutive adverts of the same peer, though, only a
// handful of slots change: ~p*tau arrivals near the head, the matching FIFO
// evictions (which mostly fall *below* the shifted window base and need no
// bits at all), and the occasional retry filling an old hole.  A
// BufferMapDelta carries exactly that difference as a base shift plus a
// short list of toggled-bit runs, so steady-state availability gossip costs
// a fraction of the full map.  Real deployments resynchronise periodically;
// the engine refreshes with a full map every `map_refresh_period` adverts
// (and whenever the delta would not be smaller than the map it replaces).
//
// Wire format (an accounting model: the engine charges these sizes and never
// serialises a delta):
//   20 bits  new window base id (truncated, same convention as BufferMap)
//    8 bits  run count R (deltas needing more runs fall back to a full map)
//   16 bits  per run: 10-bit start offset from the new base + 6-bit length
#pragma once

#include <cstdint>
#include <vector>

#include "gossip/buffer_map.hpp"

namespace gs::gossip {

class BufferMapDelta {
 public:
  /// A maximal run of toggled bits, positioned relative to the new base.
  struct Run {
    std::uint16_t offset = 0;  ///< first toggled slot, < window
    std::uint16_t length = 0;  ///< in [1, kMaxRunLength]

    [[nodiscard]] bool operator==(const Run& other) const noexcept = default;
  };

  /// The delta transforming `from` into `to`.  Both maps must share one
  /// window size; any base movement (forward on head progress, backward in
  /// the rare evicted-max case) is representable.  Runs longer than
  /// kMaxRunLength are split, so only the run count can exceed the format.
  [[nodiscard]] static BufferMapDelta diff(const BufferMap& from, const BufferMap& to);

  [[nodiscard]] const std::vector<Run>& runs() const noexcept { return runs_; }
  /// True when the delta fits the wire format (run count and window caps).
  [[nodiscard]] bool encodable() const noexcept {
    return runs_.size() <= kMaxRuns && window_ <= kMaxWindow;
  }

  static constexpr std::size_t kRunOffsetBits = 10;
  static constexpr std::size_t kRunLengthBits = 6;
  static constexpr std::size_t kRunCountBits = 8;
  static constexpr std::size_t kRunBits = kRunOffsetBits + kRunLengthBits;
  static constexpr std::size_t kHeaderBits = BufferMap::kBaseIdBits + kRunCountBits;
  static constexpr std::size_t kMaxRunLength = (1u << kRunLengthBits) - 1;
  static constexpr std::size_t kMaxRuns = (1u << kRunCountBits) - 1;
  static constexpr std::size_t kMaxWindow = 1u << kRunOffsetBits;

 private:
  std::size_t window_ = 0;   ///< shared window size in slots
  std::vector<Run> runs_;    ///< sorted, non-overlapping, non-adjacent
};

}  // namespace gs::gossip
