// Per-peer state and node-local bookkeeping.
//
// A PeerNode owns everything that belongs to exactly one peer: its stream
// buffer and playback engine, its gossip availability state (received set,
// pending requests) and its identity.  The per-tick-hot scalars — alive
// flag, rates, budget, switch counters — live in a struct-of-arrays
// PeerPool (see peer_pool.hpp); PeerNode holds a (pool, index) binding and
// exposes reference-returning accessors so call sites keep their shape
// (`p.alive() = false`, `--p.q1_missing()`).  The engine binds all peers to
// one shared pool; an unbound node lazily creates a private single-slot
// pool on first access, so standalone PeerNodes (tests, transients) still
// work and default construction allocates nothing.
//
// Cross-peer mechanism — uplink queues, deliveries, the switch timeline —
// lives in TransferPlane / SwitchTimeline; the engine wires them together.
#pragma once

#include <cstdint>
#include <memory>

#include "net/graph.hpp"
#include "stream/peer_pool.hpp"
#include "stream/playback.hpp"
#include "stream/scheduler.hpp"
#include "stream/stream_buffer.hpp"
#include "util/bitset.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace gs::stream {

/// "No batch-ticker group" sentinel for PeerNode::tick_group.
inline constexpr std::size_t kNoTickGroup = static_cast<std::size_t>(-1);

struct PeerNode {
  net::NodeId id = 0;

  StreamBuffer buffer{600};
  Playback playback{10.0};

  /// Ever-received segment ids (play/accounting source of truth; survives
  /// buffer eviction).
  util::DynamicBitset received;
  /// id -> retry-eligible time for in-flight requests.  Flat and
  /// open-addressed: entries live inline, and an empty book owns no heap.
  util::FlatSegmentMap<double> pending;

  util::Rng rng;
  /// Index of this peer's sim::BatchTicker group (kNoTickGroup for sources,
  /// which never tick, and once the peer left).
  std::size_t tick_group = kNoTickGroup;

  /// Delta availability gossip (EngineConfig::delta_maps): the last full
  /// map this peer advertised — the receivers' reconstruction baseline —
  /// and the adverts sent since the last full-map refresh.
  gossip::BufferMap advertised_map;
  std::uint32_t adverts_since_refresh = 0;

  // Diagnostics.
  std::uint64_t requests_issued = 0;
  std::uint64_t requests_rejected = 0;
  std::uint64_t duplicates_received = 0;

  /// Attaches this node to slot `index` of an engine-owned pool.  The pool
  /// must outlive the node (the engine owns both).
  void bind(PeerPool& pool, std::size_t index) noexcept {
    pool_ = &pool;
    idx_ = index;
  }

  // Hot-scalar accessors.  Non-const overloads return references into the
  // pool (uint8_t for flags: `p.tracked() = true` and `if (p.tracked())`
  // both work); const overloads return values.
  [[nodiscard]] bool is_source() const { return pool().is_source(idx_) != 0; }
  [[nodiscard]] std::uint8_t& is_source() { return pool().is_source(idx_); }
  [[nodiscard]] bool alive() const { return pool().alive(idx_) != 0; }
  [[nodiscard]] std::uint8_t& alive() { return pool().alive(idx_); }
  [[nodiscard]] double inbound_rate() const { return pool().inbound_rate(idx_); }
  [[nodiscard]] double& inbound_rate() { return pool().inbound_rate(idx_); }
  [[nodiscard]] double outbound_rate() const { return pool().outbound_rate(idx_); }
  [[nodiscard]] double& outbound_rate() { return pool().outbound_rate(idx_); }
  [[nodiscard]] const RateBudget& in_budget() const { return pool().in_budget(idx_); }
  [[nodiscard]] RateBudget& in_budget() { return pool().in_budget(idx_); }
  /// First id this peer needs (joiners skip the back catalogue).
  [[nodiscard]] SegmentId start_id() const { return pool().start_id(idx_); }
  [[nodiscard]] SegmentId& start_id() { return pool().start_id(idx_); }
  /// Contiguous run of received ids starting at start_id (startup rule).
  [[nodiscard]] std::uint32_t start_run() const { return pool().start_run(idx_); }
  [[nodiscard]] std::uint32_t& start_run() { return pool().start_run(idx_); }
  /// Highest switch index whose boundary this peer knows (-1 = none).
  [[nodiscard]] int known_boundary() const { return pool().known_boundary(idx_); }
  [[nodiscard]] int& known_boundary() { return pool().known_boundary(idx_); }
  /// Switch currently being worked (-1 = none).  Valid once the timeline's
  /// switch event initialised the counters below.
  [[nodiscard]] int active_switch() const { return pool().active_switch(idx_); }
  [[nodiscard]] int& active_switch() { return pool().active_switch(idx_); }
  /// Q1: undelivered old-stream segments for the active switch.
  [[nodiscard]] std::uint32_t q1_missing() const { return pool().q1_missing(idx_); }
  [[nodiscard]] std::uint32_t& q1_missing() { return pool().q1_missing(idx_); }
  /// Q2: undelivered segments of the new stream's Qs-prefix.
  [[nodiscard]] std::uint32_t q2_missing() const { return pool().q2_missing(idx_); }
  [[nodiscard]] std::uint32_t& q2_missing() { return pool().q2_missing(idx_); }
  /// Snapshot of q1_missing at the switch instant (Q0).
  [[nodiscard]] std::uint32_t q0_at_switch() const { return pool().q0_at_switch(idx_); }
  [[nodiscard]] std::uint32_t& q0_at_switch() { return pool().q0_at_switch(idx_); }
  /// Lower bound of this peer's old-stream needs for the active switch.
  [[nodiscard]] SegmentId sw_lo() const { return pool().sw_lo(idx_); }
  [[nodiscard]] SegmentId& sw_lo() { return pool().sw_lo(idx_); }
  /// Finished playback of the old stream.
  [[nodiscard]] bool sw_finished() const { return pool().sw_finished(idx_) != 0; }
  [[nodiscard]] std::uint8_t& sw_finished() { return pool().sw_finished(idx_); }
  /// Gathered the new stream's prefix.
  [[nodiscard]] bool sw_prepared() const { return pool().sw_prepared(idx_) != 0; }
  [[nodiscard]] std::uint8_t& sw_prepared() { return pool().sw_prepared(idx_); }
  /// Counted in the active switch's metrics.
  [[nodiscard]] bool tracked() const { return pool().tracked(idx_) != 0; }
  [[nodiscard]] std::uint8_t& tracked() { return pool().tracked(idx_); }
  /// Playback gate set for the active switch.
  [[nodiscard]] bool gate_armed() const { return pool().gate_armed(idx_) != 0; }
  [[nodiscard]] std::uint8_t& gate_armed() { return pool().gate_armed(idx_); }
  /// Index into the engine's scheduler-strategy registry (strategies are
  /// stateless per call and shared; peers carry a one-byte handle so
  /// heterogeneous policies stay a config change, not a refactor).
  [[nodiscard]] std::uint8_t strategy_index() const { return pool().strategy(idx_); }
  [[nodiscard]] std::uint8_t& strategy_index() { return pool().strategy(idx_); }

  /// Marks `id` received (growing the bitset as needed) and inserts it into
  /// the stream buffer.  Returns false when it was already received.  When
  /// the insert evicts a segment, its id is reported through `evicted`
  /// (kNoSegment otherwise) so availability views can track the loss.
  bool mark_received(SegmentId id, SegmentId* evicted = nullptr);

  /// True when `id` is a valid, already-received segment id.
  [[nodiscard]] bool has_received(SegmentId id) const noexcept;

  /// First id this peer currently wants: the playback cursor once started,
  /// start_id before.  The candidate range, the windowed availability
  /// anchor and the per-tick window sync all derive from this one value —
  /// their agreement is what guarantees the sliding window always covers
  /// the candidate scan.
  [[nodiscard]] SegmentId playback_anchor() const {
    return playback.started() ? playback.cursor() : start_id();
  }

  /// Undelivered segments in [lo, hi] (0 when the range is empty).
  [[nodiscard]] std::size_t count_missing(SegmentId lo, SegmentId hi) const;

  /// Raw warm-start fill: availability and buffer only — no playback,
  /// announcement or metrics effects (those do not exist yet).
  void preload(SegmentId id) { (void)mark_received(id); }

  /// Drops expired in-flight entries so the segments become requestable
  /// again.
  void prune_pending(double now) {
    pending.erase_if([now](double retry_at) { return retry_at <= now; });
  }

  /// Extends the contiguous received run from start_id (startup rule).
  void extend_start_run();

  /// Heap bytes owned by this node's cold state (buffer, playback, received
  /// set, pending book, advertised map) plus the node itself.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  [[nodiscard]] PeerPool& pool() const {
    if (pool_ == nullptr) {
      own_ = std::make_unique<PeerPool>();
      own_->resize(1);
      pool_ = own_.get();
    }
    return *pool_;
  }

  // Engine-bound nodes point into the engine's pool; unbound nodes lazily
  // own a single-slot pool.  Mutable so const reads work before binding;
  // own_ lives on the heap so the binding survives vector reallocation.
  mutable PeerPool* pool_ = nullptr;
  mutable std::unique_ptr<PeerPool> own_;
  std::size_t idx_ = 0;
};

/// Historical name, kept for call sites that predate the decomposition.
using Peer = PeerNode;

/// First id >= `from` that is clear in `bits` (ids beyond the bitset's size
/// are implicitly clear).
[[nodiscard]] SegmentId next_missing(const util::DynamicBitset& bits, SegmentId from);

}  // namespace gs::stream
