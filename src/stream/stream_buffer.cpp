#include "stream/stream_buffer.hpp"

#include <bit>
#include <utility>

#include "util/check.hpp"

namespace gs::stream {

StreamBuffer::StreamBuffer(std::size_t capacity) : capacity_(capacity) {
  GS_CHECK_GE(capacity, 1u);
  GS_CHECK_LE(capacity, kMaxCapacity) << "positions are uint16 stamp distances";
}

void StreamBuffer::grow_presence(SegmentId id) {
  const auto needed = static_cast<std::size_t>(id) + 1;
  if (presence_.size() < needed) {
    // Grow geometrically so repeated inserts stay amortized O(1).
    presence_.resize(std::max(needed, presence_.size() * 2 + 64));
  }
}

void StreamBuffer::grow_ring() {
  // Relinearise so the oldest element lands at slot 0.  Once count reaches
  // capacity the ring is exactly `capacity` slots and only eviction runs.
  std::vector<std::int32_t> bigger(
      std::min(capacity_, std::max<std::size_t>(16, ring_.size() * 2)));
  for (std::size_t k = 0; k < count_; ++k) bigger[k] = ring_[ring_slot(k)];
  ring_ = std::move(bigger);
  head_ = 0;
}

void StreamBuffer::grow_stamps(std::size_t span) {
  stamps_.assign(std::max({std::size_t{64}, stamps_.size() * 2, std::bit_ceil(span + 1)}), 0);
  mask_ = stamps_.size() - 1;
  // Held ids carry consecutive sequence numbers ending just below the next.
  auto seq = static_cast<std::uint16_t>(next_sequence_ - count_);
  for (std::size_t k = 0; k < count_; ++k) {
    stamps_[static_cast<std::size_t>(ring_[ring_slot(k)]) & mask_] = seq++;
  }
}

SegmentId StreamBuffer::insert(SegmentId id) {
  GS_CHECK_GE(id, 0);
  GS_CHECK_LE(id, std::numeric_limits<std::int32_t>::max()) << "the ring holds int32 ids";
  if (contains(id)) return kNoSegment;
  grow_presence(id);

  SegmentId victim = kNoSegment;
  if (count_ == capacity_) {
    // Evict before inserting, so the ring stays at `capacity` slots and the
    // low edge of the stamp window moves before the span is checked.
    victim = ring_[head_];
    head_ = ring_slot(1);
    --count_;
    presence_.reset(static_cast<std::size_t>(victim));
    if (victim == max_id_) {
      // Rare: the max can only be evicted under heavy id reordering.
      max_id_ = kNoSegment;
      for (std::size_t k = 0; k < count_; ++k) {
        max_id_ = std::max<SegmentId>(max_id_, ring_[ring_slot(k)]);
      }
    }
    if (victim == min_id_) {
      min_id_ = count_ == 0 ? kNoSegment
                            : static_cast<SegmentId>(
                                  presence_.find_first(static_cast<std::size_t>(victim)));
    }
  } else if (count_ == ring_.size()) {
    grow_ring();
  }

  const SegmentId low = count_ == 0 ? id : std::min(min_id_, id);
  const SegmentId high = std::max(max_id_, id);
  const auto span = static_cast<std::size_t>(high - low);
  if (span >= stamps_.size()) grow_stamps(span);
  ring_[ring_slot(count_)] = static_cast<std::int32_t>(id);
  ++count_;
  stamps_[static_cast<std::size_t>(id) & mask_] = next_sequence_++;
  presence_.set(static_cast<std::size_t>(id));
  min_id_ = low;
  max_id_ = high;
  return victim;
}

void StreamBuffer::build_map_into(std::size_t window_bits, gossip::BufferMap& out) const {
  out.assign_from_presence(window_base(window_bits), window_bits, presence_);
}

std::size_t StreamBuffer::memory_bytes() const noexcept {
  return presence_.memory_bytes() + ring_.capacity() * sizeof(std::int32_t) +
         stamps_.capacity() * sizeof(std::uint16_t);
}

}  // namespace gs::stream
