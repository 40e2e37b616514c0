// Per-peer state and node-local bookkeeping.
//
// A PeerNode owns everything that belongs to exactly one peer: its identity,
// the per-period scalars the tick reads (alive flag, outbound rate, inbound
// budget, the learned boundary and the Q1/Q2 switch counters), its stream
// buffer and playback engine, and its gossip availability state (received
// set, pending requests).  Every field is a plain member with its default,
// so a default-constructed node is a live, non-source peer with no switch
// and no known boundary — the state a joiner starts from.
//
// Cross-peer mechanism — uplink queues, deliveries, the switch timeline —
// lives in TransferPlane / SwitchTimeline; the engine wires them together.
#pragma once

#include <cstdint>

#include "net/graph.hpp"
#include "stream/bandwidth.hpp"
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
  bool is_source = false;
  bool alive = true;
  /// Index into the engine's scheduler-strategy registry (strategies are
  /// stateless per call and shared; peers carry a one-byte handle so
  /// heterogeneous policies stay a config change, not a refactor).
  std::uint8_t strategy_index = 0;

  double outbound_rate = 0.0;
  /// Inbound request budget; its rate() is the peer's inbound rate I.
  RateBudget in_budget;

  /// First id this peer needs (joiners skip the back catalogue).
  SegmentId start_id = 0;
  /// Contiguous run of received ids starting at start_id (startup rule).
  std::uint32_t start_run = 0;

  /// Highest switch index whose boundary this peer knows (-1 = none).
  int known_boundary = -1;
  /// Switch currently being worked (-1 = none).  Valid once the timeline's
  /// switch event initialised the fields below.
  int active_switch = -1;
  /// Q1: undelivered old-stream segments for the active switch.
  std::uint32_t q1_missing = 0;
  /// Q2: undelivered segments of the new stream's Qs-prefix.
  std::uint32_t q2_missing = 0;
  /// Snapshot of q1_missing at the switch instant (Q0).
  std::uint32_t q0_at_switch = 0;
  /// Lower bound of this peer's old-stream needs for the active switch.
  SegmentId sw_lo = 0;
  /// Finished playback of the old stream.
  bool sw_finished = false;
  /// Gathered the new stream's prefix.
  bool sw_prepared = false;
  /// Counted in the active switch's metrics.
  bool tracked = false;
  /// Playback gate set for the active switch.
  bool gate_armed = false;

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

  /// Marks `id` received (growing the bitset as needed) and inserts it into
  /// the stream buffer.  Returns false when it was already received.
  bool mark_received(SegmentId id);

  /// True when `id` is a valid, already-received segment id.
  [[nodiscard]] bool has_received(SegmentId id) const noexcept;

  /// First id this peer currently wants: the playback cursor once started,
  /// start_id before.  The candidate build's request window starts here.
  [[nodiscard]] SegmentId playback_anchor() const {
    return playback.started() ? playback.cursor() : start_id;
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

  /// Heap bytes owned by this node (buffer, playback, received set, pending
  /// book, advertised map) plus the node itself.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;
};

/// First id >= `from` that is clear in `bits` (ids beyond the bitset's size
/// are implicitly clear).
[[nodiscard]] SegmentId next_missing(const util::DynamicBitset& bits, SegmentId from);

}  // namespace gs::stream
