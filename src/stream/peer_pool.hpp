// Struct-of-arrays storage for per-tick-hot peer scalars.
//
// At N = 10^6 the tick sweep touches every live peer's alive flag, budget,
// playback anchor and switch counters each period.  Keeping those scalars
// inside PeerNode means every touch drags a whole multi-cache-line node
// through the cache; packing each field into its own contiguous array keeps
// the sweep's working set at a few bytes per peer and lets unrelated cold
// state (buffers, rngs, gossip maps) stay out of the way.
//
// PeerNode does not store these fields any more — it holds a (pool, index)
// binding and exposes reference-returning accessors, so call sites read the
// same as before (`p.alive() = false`, `--p.q1_missing()`).  The engine owns
// one pool for all peers; an unbound PeerNode (unit tests, transients)
// lazily creates a private single-slot pool, so default construction stays
// allocation-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gossip/buffer_map.hpp"
#include "stream/bandwidth.hpp"

namespace gs::stream {

using gossip::SegmentId;

class PeerPool {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return alive_.size(); }

  /// Grows (or shrinks) to `n` slots.  Existing slots keep their values;
  /// new slots get the PeerNode defaults (alive, no switch, no boundary).
  void resize(std::size_t n);

  /// Heap bytes owned by all field arrays.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  // One accessor per field, indexed by the peer's pool slot.  Bools are
  // stored as uint8_t (vector<bool> proxies cannot hand out references).
  [[nodiscard]] std::uint8_t& is_source(std::size_t i) noexcept { return is_source_[i]; }
  [[nodiscard]] std::uint8_t& alive(std::size_t i) noexcept { return alive_[i]; }
  [[nodiscard]] std::uint8_t& sw_finished(std::size_t i) noexcept { return sw_finished_[i]; }
  [[nodiscard]] std::uint8_t& sw_prepared(std::size_t i) noexcept { return sw_prepared_[i]; }
  [[nodiscard]] std::uint8_t& tracked(std::size_t i) noexcept { return tracked_[i]; }
  [[nodiscard]] std::uint8_t& gate_armed(std::size_t i) noexcept { return gate_armed_[i]; }
  [[nodiscard]] std::uint8_t& strategy(std::size_t i) noexcept { return strategy_[i]; }
  [[nodiscard]] double& inbound_rate(std::size_t i) noexcept { return inbound_rate_[i]; }
  [[nodiscard]] double& outbound_rate(std::size_t i) noexcept { return outbound_rate_[i]; }
  [[nodiscard]] RateBudget& in_budget(std::size_t i) noexcept { return in_budget_[i]; }
  [[nodiscard]] SegmentId& start_id(std::size_t i) noexcept { return start_id_[i]; }
  [[nodiscard]] SegmentId& sw_lo(std::size_t i) noexcept { return sw_lo_[i]; }
  [[nodiscard]] std::uint32_t& start_run(std::size_t i) noexcept { return start_run_[i]; }
  [[nodiscard]] std::uint32_t& q1_missing(std::size_t i) noexcept { return q1_missing_[i]; }
  [[nodiscard]] std::uint32_t& q2_missing(std::size_t i) noexcept { return q2_missing_[i]; }
  [[nodiscard]] std::uint32_t& q0_at_switch(std::size_t i) noexcept { return q0_at_switch_[i]; }
  [[nodiscard]] int& known_boundary(std::size_t i) noexcept { return known_boundary_[i]; }
  [[nodiscard]] int& active_switch(std::size_t i) noexcept { return active_switch_[i]; }

 private:
  std::vector<std::uint8_t> is_source_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::uint8_t> sw_finished_;
  std::vector<std::uint8_t> sw_prepared_;
  std::vector<std::uint8_t> tracked_;
  std::vector<std::uint8_t> gate_armed_;
  std::vector<std::uint8_t> strategy_;
  std::vector<double> inbound_rate_;
  std::vector<double> outbound_rate_;
  std::vector<RateBudget> in_budget_;
  std::vector<SegmentId> start_id_;
  std::vector<SegmentId> sw_lo_;
  std::vector<std::uint32_t> start_run_;
  std::vector<std::uint32_t> q1_missing_;
  std::vector<std::uint32_t> q2_missing_;
  std::vector<std::uint32_t> q0_at_switch_;
  std::vector<int> known_boundary_;
  std::vector<int> active_switch_;
};

}  // namespace gs::stream
