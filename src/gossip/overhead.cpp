#include "gossip/overhead.hpp"

namespace gs::gossip {

void OverheadAccountant::charge_buffer_map_exchanges(std::size_t count) noexcept {
  if (!enabled_) return;
  buffer_map_bits_ += wire_.buffer_map_bits() * count;
}

void OverheadAccountant::charge_buffer_map_delta(std::size_t run_count,
                                                 std::size_t receiver_count) noexcept {
  if (!enabled_) return;
  buffer_map_bits_ += wire_.buffer_map_delta_bits(run_count) * receiver_count;
}

void OverheadAccountant::charge_request(std::size_t segment_count) noexcept {
  if (!enabled_) return;
  request_bits_ += wire_.request_bits(segment_count);
}

void OverheadAccountant::charge_data_segment() noexcept {
  if (!enabled_) return;
  data_bits_ += wire_.data_bits();
  ++data_segments_;
}

void OverheadAccountant::charge_membership(std::size_t records) noexcept {
  if (!enabled_) return;
  membership_bits_ += wire_.membership_bits(records);
}

}  // namespace gs::gossip
