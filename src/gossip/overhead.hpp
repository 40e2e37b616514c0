// Communication-overhead accounting.
//
// The paper's metric: bits spent on buffer-map exchange divided by bits of
// data segments actually transferred, accumulated over the measurement
// window.  Request and membership bits are tracked separately so extensions
// (push-pull) can report their extra control cost.
#pragma once

#include <cstddef>
#include <cstdint>

#include "gossip/message.hpp"

namespace gs::gossip {

class OverheadAccountant {
 public:
  explicit OverheadAccountant(WireFormat wire = paper_wire_format()) : wire_(wire) {}

  [[nodiscard]] const WireFormat& wire() const noexcept { return wire_; }

  /// Starts/stops attribution; charges outside the window are dropped.
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  /// `count` full-map exchanges at once (one per neighbour of a tick).
  void charge_buffer_map_exchanges(std::size_t count) noexcept;
  /// One delta advert of `run_count` toggled-bit runs sent to
  /// `receiver_count` neighbours (delta_maps accounting).
  void charge_buffer_map_delta(std::size_t run_count, std::size_t receiver_count) noexcept;
  void charge_request(std::size_t segment_count) noexcept;
  void charge_data_segment() noexcept;
  void charge_membership(std::size_t records) noexcept;

  [[nodiscard]] std::uint64_t buffer_map_bits() const noexcept { return buffer_map_bits_; }
  [[nodiscard]] std::uint64_t request_bits() const noexcept { return request_bits_; }
  [[nodiscard]] std::uint64_t data_bits() const noexcept { return data_bits_; }
  [[nodiscard]] std::uint64_t membership_bits() const noexcept { return membership_bits_; }
  [[nodiscard]] std::uint64_t data_segments() const noexcept { return data_segments_; }

 private:
  WireFormat wire_;
  bool enabled_ = true;
  std::uint64_t buffer_map_bits_ = 0;
  std::uint64_t request_bits_ = 0;
  std::uint64_t data_bits_ = 0;
  std::uint64_t membership_bits_ = 0;
  std::uint64_t data_segments_ = 0;
};

}  // namespace gs::gossip
