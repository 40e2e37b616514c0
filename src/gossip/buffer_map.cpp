#include "gossip/buffer_map.hpp"

#include "util/check.hpp"

namespace gs::gossip {

void BufferMap::assign_from_presence(SegmentId base, std::size_t window_bits,
                                     const util::DynamicBitset& presence) {
  GS_CHECK_GE(base, 0);
  base_ = base;
  bits_.assign_window(presence, static_cast<std::size_t>(base), window_bits);
}

std::uint64_t BufferMap::window_word(SegmentId from_id) const noexcept {
  const SegmentId offset = from_id - base_;
  if (offset >= static_cast<SegmentId>(bits_.size()) || offset <= -64) return 0;
  if (offset >= 0) return bits_.extract_word(static_cast<std::size_t>(offset));
  // Straddling the window start: the below-base ids read 0.
  return bits_.extract_word(0) << static_cast<std::size_t>(-offset);
}

}  // namespace gs::gossip
