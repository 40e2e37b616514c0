// Bit-accurate wire sizes of the messages peers exchange.
//
// The simulator does not serialize real packets between in-process peers —
// it charges each exchange its wire size so the communication-overhead
// metric (§5.3 of the paper: control bits / data bits) is exact.
#pragma once

#include <cstddef>

#include "gossip/buffer_map.hpp"
#include "gossip/buffer_map_delta.hpp"

namespace gs::gossip {

/// Wire-size model.  Every size is the paper's except the availability
/// map's window, which the engine sets to the buffer capacity B.
struct WireFormat {
  std::size_t buffer_window_bits = 600;   ///< B slots in the availability map
  static constexpr std::size_t base_id_bits = BufferMap::kBaseIdBits;  ///< 20 bits (§5.3)
  /// One id per requested segment.
  static constexpr std::size_t request_id_bits = BufferMap::kBaseIdBits;
  static constexpr std::size_t segment_payload_bits = 30 * 1024;  ///< 30 Kb per segment (§5.1)
  static constexpr std::size_t membership_record_bits = 48;  ///< ip+port of one peer

  /// Bits of one buffer-map exchange: base id + window bitmap.
  [[nodiscard]] constexpr std::size_t buffer_map_bits() const noexcept {
    return base_id_bits + buffer_window_bits;
  }
  /// Bits of one incremental buffer-map exchange carrying `runs` runs: the
  /// BufferMapDelta framing (base + run count header, then one
  /// offset/length pair per toggled-bit run).
  [[nodiscard]] static constexpr std::size_t buffer_map_delta_bits(std::size_t runs) noexcept {
    return BufferMapDelta::kHeaderBits + BufferMapDelta::kRunBits * runs;
  }
  /// Bits of a pull request for `segment_count` segments.
  [[nodiscard]] static constexpr std::size_t request_bits(std::size_t segment_count) noexcept {
    return request_id_bits * segment_count;
  }
  /// Bits of one data segment on the wire.
  [[nodiscard]] static constexpr std::size_t data_bits() noexcept { return segment_payload_bits; }
  /// Bits of a membership message carrying `records` peer records.
  [[nodiscard]] static constexpr std::size_t membership_bits(std::size_t records) noexcept {
    return membership_record_bits * records;
  }
};

/// Paper defaults: 620-bit maps, 30 Kb segments.
[[nodiscard]] constexpr WireFormat paper_wire_format() noexcept { return WireFormat{}; }

}  // namespace gs::gossip
