// Per-peer segment buffer with FIFO replacement.
//
// The paper fixes the replacement strategy to FIFO and defines a segment's
// position p_ij in a supplier's buffer as its distance from the buffer's
// *tail* (most recent insertion): a just-inserted segment has position 1,
// the eviction candidate has position size() <= B.  rarity (eq. 8) uses
// p_ij / B as the per-supplier replacement probability.
//
// One backend in every memory mode, three parts:
//  - the presence bitset over [0, highest id ever inserted];
//  - a ring of held ids in insertion order (head = oldest), growing
//    geometrically to B so a near-empty buffer does not pay for B slots;
//  - a power-of-two window of uint16 stamps indexed by `id & mask`, holding
//    the low 16 bits of each held id's insertion sequence.  The window
//    always covers [lowest held id, highest held id], so held ids never
//    share a slot.  An insert that widens that span past the window grows
//    it to the next power of two covering the span (at least double) and
//    re-stamps the held ids from the ring; it never shrinks.
// A position is then one stamp load after the presence test.  Held ids
// carry consecutive sequence numbers, so distances stay exact modulo 2^16
// as long as B <= 65535 (kMaxCapacity).  All state is created lazily on
// first insert, so an empty buffer owns no heap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "gossip/buffer_map.hpp"
#include "util/bitset.hpp"

namespace gs::stream {

using gossip::SegmentId;
using gossip::kNoSegment;

class StreamBuffer {
 public:
  /// Largest B: the largest distance a uint16 stamp can hold.
  static constexpr std::size_t kMaxCapacity = std::numeric_limits<std::uint16_t>::max();

  /// `capacity` is B, in [1, kMaxCapacity].
  explicit StreamBuffer(std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// Inserts `id` (in [0, INT32_MAX]); returns the evicted id (kNoSegment if
  /// none).  Duplicate inserts are no-ops returning kNoSegment.
  SegmentId insert(SegmentId id);

  /// True if `id` is currently held (inserted and not yet evicted).
  [[nodiscard]] bool contains(SegmentId id) const noexcept {
    return id >= 0 && static_cast<std::size_t>(id) < presence_.size() &&
           presence_.test(static_cast<std::size_t>(id));
  }

  /// Distance from tail: 1 for the newest segment, size() for the oldest.
  /// Returns 0 if absent.  Every successful insert takes the next sequence
  /// number and evictions only remove from the head, so the distance is
  /// the number of later insertions plus one.
  [[nodiscard]] std::size_t position_from_tail(SegmentId id) const noexcept {
    if (!contains(id)) return 0;
    return static_cast<std::uint16_t>(next_sequence_ -
                                      stamps_[static_cast<std::size_t>(id) & mask_]);
  }

  /// Oldest (next-to-evict) segment; kNoSegment when empty.
  [[nodiscard]] SegmentId oldest() const noexcept {
    return count_ == 0 ? kNoSegment : ring_[head_];
  }
  /// Most recently inserted segment; kNoSegment when empty.
  [[nodiscard]] SegmentId newest() const noexcept {
    return count_ == 0 ? kNoSegment : ring_[ring_slot(count_ - 1)];
  }

  /// Highest segment id currently held; kNoSegment when empty.  Maintained
  /// incrementally (streaming arrival is nearly in id order, so the max is
  /// almost always the last insert; eviction of the max triggers a rescan).
  [[nodiscard]] SegmentId max_id() const noexcept { return max_id_; }

  /// Id-indexed availability, spanning [0, highest id ever inserted].
  /// Bits are cleared on eviction.  Zero-copy view for the gossip layer.
  [[nodiscard]] const util::DynamicBitset& presence() const noexcept { return presence_; }

  /// Rebuilds `out` as the availability map a peer advertises: a window of
  /// `window_bits` ending at the highest held id (base = max(0, max_id -
  /// window + 1)), reusing the map's storage.
  void build_map_into(std::size_t window_bits, gossip::BufferMap& out) const;

  /// Heap bytes owned by the ring, the stamp window and the presence bitset.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  /// Ring slot of the k-th held id in FIFO order (k = 0 is the oldest).
  [[nodiscard]] std::size_t ring_slot(std::size_t k) const noexcept {
    const std::size_t slot = head_ + k;
    return slot >= ring_.size() ? slot - ring_.size() : slot;
  }
  void grow_presence(SegmentId id);
  void grow_ring();
  /// Resizes the stamp window to cover `span` ids and re-stamps the ring.
  void grow_stamps(std::size_t span);
  [[nodiscard]] SegmentId window_base(std::size_t window_bits) const noexcept {
    if (max_id_ == kNoSegment) return 0;
    return std::max<SegmentId>(0, max_id_ - static_cast<SegmentId>(window_bits) + 1);
  }

  std::size_t capacity_;
  util::DynamicBitset presence_;
  std::vector<std::int32_t> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint16_t> stamps_;
  std::size_t mask_ = 0;
  /// Sequence number the next insert takes, modulo 2^16.
  std::uint16_t next_sequence_ = 0;
  SegmentId min_id_ = kNoSegment;
  SegmentId max_id_ = kNoSegment;
};

}  // namespace gs::stream
