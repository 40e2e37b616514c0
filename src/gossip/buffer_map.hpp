// Buffer-availability map: the per-neighbour data structure exchanged every
// scheduling period in pull-based gossip streaming.
//
// Wire format follows the paper's overhead accounting exactly (§5.3): the id
// of the first segment in the buffer takes 20 bits (a source emits at most
// 10*3600*24 = 864000 < 2^20 segments per day) and availability of the B=600
// buffer slots takes B bits, i.e. 620 bits per exchange for the defaults.
// The engine charges that size and never serialises a map; it keeps one only
// as a peer's last advert, the baseline BufferMapDelta::diff charges against.
#pragma once

#include <cstdint>

#include "util/bitset.hpp"

namespace gs::gossip {

/// Global segment sequence number.  S2 continues S1's numbering
/// (id_begin = id_end + 1), so one id space serves all sessions.
using SegmentId = std::int64_t;

/// Sentinel for "no segment".
inline constexpr SegmentId kNoSegment = -1;

class BufferMap {
 public:
  [[nodiscard]] SegmentId base() const noexcept { return base_; }
  [[nodiscard]] std::size_t window() const noexcept { return bits_.size(); }

  /// Rebuilds this map over [base, base + window_bits), copied
  /// word-at-a-time from an id-indexed presence bitset (bit i of `presence`
  /// = id i held).  Reuses the bit storage, so per-advert scratch maps stop
  /// allocating.
  void assign_from_presence(SegmentId base, std::size_t window_bits,
                            const util::DynamicBitset& presence);

  /// Availability of the 64 ids starting at `from_id` as one word (bit i =
  /// from_id + i); ids outside the window read 0.  `from_id` may be below
  /// the base or even negative — this is the word-at-a-time kernel
  /// BufferMapDelta::diff uses to compare differently-based windows.
  [[nodiscard]] std::uint64_t window_word(SegmentId from_id) const noexcept;

  /// Heap bytes owned by the bit storage.
  [[nodiscard]] std::size_t memory_bytes() const noexcept { return bits_.memory_bytes(); }

  static constexpr std::size_t kBaseIdBits = 20;

 private:
  SegmentId base_ = 0;
  util::DynamicBitset bits_;
};

}  // namespace gs::gossip
