#include "stream/peer_node.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gs::stream {

SegmentId next_missing(const util::DynamicBitset& bits, SegmentId from) {
  GS_CHECK_GE(from, 0);
  if (static_cast<std::size_t>(from) >= bits.size()) return from;
  const std::size_t pos = bits.find_first_clear(static_cast<std::size_t>(from));
  return static_cast<SegmentId>(pos);  // == bits.size() means "just past", still correct
}

bool PeerNode::mark_received(SegmentId id) {
  if (static_cast<std::size_t>(id) >= received.size()) {
    received.resize(std::max<std::size_t>(static_cast<std::size_t>(id) + 1,
                                          received.size() * 2 + 64));
  }
  if (received.test(static_cast<std::size_t>(id))) return false;
  received.set(static_cast<std::size_t>(id));
  buffer.insert(id);
  return true;
}

bool PeerNode::has_received(SegmentId id) const noexcept {
  return id >= 0 && static_cast<std::size_t>(id) < received.size() &&
         received.test(static_cast<std::size_t>(id));
}

std::size_t PeerNode::count_missing(SegmentId lo, SegmentId hi) const {
  if (lo > hi) return 0;
  std::size_t missing = 0;
  for (SegmentId id = lo; id <= hi; ++id) {
    if (!has_received(id)) ++missing;
  }
  return missing;
}

void PeerNode::extend_start_run() {
  const std::size_t base = static_cast<std::size_t>(start_id);
  while (base + start_run < received.size() && received.test(base + start_run)) {
    ++start_run;
  }
}

std::size_t PeerNode::memory_bytes() const noexcept {
  return sizeof(PeerNode) + buffer.memory_bytes() + playback.memory_bytes() +
         received.memory_bytes() + pending.memory_bytes() +
         advertised_map.memory_bytes();
}

}  // namespace gs::stream
