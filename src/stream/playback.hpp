// Playback engine: consumes segments in id order at `rate` segments/second.
//
// Event-free design: play times are computed lazily but *exactly*.  The
// cursor advances whenever advance() is called (from scheduling ticks and
// segment arrivals); each played segment's timestamp is its theoretical due
// time, which stalls push forward.  This gives exact finish times without
// scheduling 10 events per node per second.
//
// Session gates model the paper's startup rules: the cursor will not cross
// a gated id until the gate is released (release happens when the start
// condition — Q consecutive for the first stream, the Qs-segment prefix for
// a new source — is met; the engine owns those conditions).
#pragma once

#include <array>
#include <functional>
#include <limits>
#include <memory>

#include "gossip/buffer_map.hpp"

namespace gs::stream {

using gossip::SegmentId;
using gossip::kNoSegment;

class Playback {
 public:
  /// `rate` is the paper's p (segments/second).
  explicit Playback(double rate);

  [[nodiscard]] bool started() const noexcept { return started_; }
  [[nodiscard]] double rate() const noexcept { return rate_; }
  /// Next segment to play.
  [[nodiscard]] SegmentId cursor() const noexcept { return cursor_; }
  /// Earliest time the cursor segment may play.
  [[nodiscard]] double next_due() const noexcept { return next_due_; }
  /// Id the playback is currently gated at; kNoSegment if no gate.
  [[nodiscard]] SegmentId gate() const noexcept { return gate_; }
  /// Total seconds spent stalled waiting for data (excludes gate waits
  /// before the stream started).
  [[nodiscard]] double stall_time() const noexcept { return stall_time_; }
  [[nodiscard]] std::uint64_t played_count() const noexcept { return played_; }

  /// Begins playback at `first` with the first segment due at `now`.
  void start(SegmentId first, double now);

  /// Forbids playing ids >= `id` until release_gate().  Only one gate may
  /// be active at a time; setting a new gate requires the old one released.
  void set_gate(SegmentId id);

  /// Releases the current gate at time `now`; the gated segment becomes
  /// due no earlier than `now`.
  void release_gate(double now);

  /// Call on every fresh segment arrival.  Guarantees no segment is ever
  /// assigned a play time earlier than its arrival: an arrival at the
  /// cursor resumes a stalled stream at the arrival instant, and arrivals
  /// just ahead of the cursor are remembered so the lazy catch-up clamps
  /// their play times (and accounts the stall) correctly.
  void notify_arrival(SegmentId id, double now);

  /// Plays every due-and-available segment.  `has(id)` reports availability;
  /// `on_play(id, play_time)` observes each play with its exact timestamp.
  /// Returns the number of segments played.
  std::size_t advance(double now, const std::function<bool(SegmentId)>& has,
                      const std::function<void(SegmentId, double)>& on_play);

  /// Heap bytes owned by the recent-arrival ring.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  /// Arrivals further than this ahead of the cursor need no timestamp: the
  /// cursor cannot reach them within any realistic advance() gap, so their
  /// play times are always later than their arrivals anyway.  (A clamp
  /// could only matter if advance() went uncalled for kArrivalWindow /
  /// rate seconds — 6.4 s at the paper's p = 10 — while ticks run it every
  /// period.)  Sized to keep the ring at 1 KiB per playing peer.
  static constexpr SegmentId kArrivalWindow = 64;
  static_assert((kArrivalWindow & (kArrivalWindow - 1)) == 0,
                "ring slots are indexed by id & (kArrivalWindow - 1)");

  /// One direct-mapped ring slot: id == the stored segment, or stale.
  /// Live entries never collide: two unplayed ids sharing a residue would
  /// have to differ by >= kArrivalWindow, and notify_arrival only stores
  /// ids within kArrivalWindow of the cursor while the smaller one is
  /// still >= cursor — a contradiction.  Stale entries fail the id check
  /// and are simply overwritten, so no range cleanup is ever needed.
  struct ArrivalSlot {
    SegmentId id = kNoSegment;
    double time = 0.0;
  };
  using ArrivalRing = std::array<ArrivalSlot, static_cast<std::size_t>(kArrivalWindow)>;

  static std::size_t slot_of(SegmentId id) noexcept {
    return static_cast<std::size_t>(id) & static_cast<std::size_t>(kArrivalWindow - 1);
  }

  double rate_;
  double interval_;
  bool started_ = false;
  SegmentId cursor_ = kNoSegment;
  double next_due_ = 0.0;
  SegmentId gate_ = kNoSegment;
  double stall_time_ = 0.0;
  /// True while the cursor segment was found missing at its due time.
  bool stalled_ = false;
  std::uint64_t played_ = 0;
  /// Arrival times of not-yet-played segments near the cursor (see
  /// notify_arrival), created on first use.
  std::unique_ptr<ArrivalRing> ring_;
};

}  // namespace gs::stream
