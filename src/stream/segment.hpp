// Segment and session model.
//
// All sources share one global segment id space: when source k stops at
// segment `last`, source k+1 begins at `last + 1` (the paper sets
// id_begin = id_end + 1).  A "session" is one source's contiguous id range.
#pragma once

#include <cstdint>

#include "gossip/buffer_map.hpp"
#include "net/graph.hpp"

namespace gs::stream {

using gossip::SegmentId;
using gossip::kNoSegment;

/// Index of a session in the serial timeline (0 = the first source).
using SessionIndex = std::int32_t;

/// One source's streaming session.
struct Session {
  net::NodeId source = 0;
  /// First segment id; kNoSegment until the first segment is generated.
  SegmentId first = kNoSegment;
  /// Last segment id; kNoSegment while the session is still streaming.
  SegmentId last = kNoSegment;

  [[nodiscard]] bool started() const noexcept { return first != kNoSegment; }
  [[nodiscard]] bool ended() const noexcept { return last != kNoSegment; }
};

}  // namespace gs::stream
