// Hierarchical timing wheel: the O(1) backing store for the event queue.
//
// The protocol's event population is clustered in the near future — fixed-
// cadence tick sweeps one period ahead and segment deliveries a few periods
// out — so a bucketed wheel quantized at the tick cadence turns almost every
// schedule into a plain vector append and almost every pop into a bump of a
// cursor through a pre-sorted bucket.  Three levels cover the full horizon:
//
//   near wheel    kNearSlots buckets of one quantum each.  Every resident
//                 entry's bucket index lies in (cursor, cursor + kNearSlots],
//                 which is exactly one bucket per slot — collection takes the
//                 whole slot, no revolution filtering.
//   coarse wheel  kCoarseSlots slots of kNearSlots buckets each (the
//                 overflow wheel).  When the cursor enters a coarse slot its
//                 entries scatter into the near wheel.
//   spill heap    a (time, id) min-heap for anything beyond the coarse
//                 horizon; pulled into the wheels as the horizon advances.
//
// Determinism rule: a bucket is sorted by the global (time, sequence) key
// before it drains, and buckets drain in increasing index order.  Bucket
// indexing is monotone in time, so the resulting pop sequence is exactly the
// order a single (time, sequence) binary heap would produce, which is the
// ordering contract every fixed-seed metric rests on.
//
// Late arrivals — an executing event scheduling into the current (already
// collected) or an earlier bucket — go to a small side heap that the
// top()/pop() pair merges with the sorted front bucket by (time, id).  Both
// planes hold only entries at or below the cursor while the wheels hold only
// entries above it, so the merge never crosses the bucket order.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

namespace gs::sim {

/// Simulation time in seconds (may be negative: warm-up runs at t < 0).
using Time = double;

/// Identifies a scheduled event for cancellation; assigned globally in
/// scheduling order, which makes (time, id) the total pop order.
using EventId = std::uint64_t;

class EventSink;

/// One pending event: at time `at`, `sink->on_event(a, b)`.  The payload
/// rides inline, so scheduling never allocates and the wheel moves entries
/// as plain bytes.
struct QueueEntry {
  Time at = 0.0;
  EventId id = 0;
  EventSink* sink = nullptr;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};
static_assert(sizeof(QueueEntry) == 40 && std::is_trivially_copyable_v<QueueEntry>,
              "the wheel sorts and moves entries as 40-byte plain structs");

/// "a fires after b" — the heap comparator: a max-heap under this order
/// (std::push_heap/pop_heap) pops the earliest (time, sequence) entry first.
struct QueueEntryLater {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const noexcept {
    if (a.at != b.at) return a.at > b.at;
    return a.id > b.id;
  }
};

/// The event queue's store.  Not thread-safe (the queue is driven by one
/// thread).
class TimingWheel {
 public:
  struct Telemetry {
    std::uint64_t scheduled = 0;            ///< entries ever pushed
    std::uint64_t overflow_promotions = 0;  ///< coarse->near + spill->wheel moves
    std::uint64_t spill_peak = 0;           ///< max spill-heap occupancy
  };

  explicit TimingWheel(double quantum = 1.0);

  void push(const QueueEntry& entry);
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The (time, id)-minimum resident entry; requires !empty().  Non-const:
  /// reaching the next bucket advances the cursor (observable order never
  /// changes, only which level stores what).
  [[nodiscard]] const QueueEntry& top();
  /// Removes and returns top(); requires !empty().
  QueueEntry pop();

  /// True if `fn(entry)` holds for any resident entry (cancellation's
  /// pendingness scan).  O(resident).
  template <typename Fn>
  [[nodiscard]] bool any(Fn&& fn) const {
    for (std::size_t i = front_pos_; i < front_.size(); ++i) {
      if (fn(front_[i])) return true;
    }
    for (const QueueEntry& e : side_) {
      if (fn(e)) return true;
    }
    for (const std::vector<QueueEntry>& slot : near_) {
      for (const QueueEntry& e : slot) {
        if (fn(e)) return true;
      }
    }
    for (const std::vector<QueueEntry>& slot : coarse_) {
      for (const QueueEntry& e : slot) {
        if (fn(e)) return true;
      }
    }
    for (const QueueEntry& e : spill_) {
      if (fn(e)) return true;
    }
    return false;
  }

  /// Drops every resident entry; the anchor resets so the next push may sit
  /// anywhere on the time axis.  Telemetry persists (lifetime counters).
  void clear() noexcept;

  [[nodiscard]] const Telemetry& telemetry() const noexcept { return telemetry_; }

 private:
  static constexpr int kNearBits = 8;  ///< 256 one-quantum near buckets
  static constexpr std::int64_t kNearSlots = std::int64_t{1} << kNearBits;
  static constexpr std::int64_t kNearMask = kNearSlots - 1;
  static constexpr int kCoarseBits = 6;  ///< 64 overflow slots of kNearSlots each
  static constexpr std::int64_t kCoarseSlots = std::int64_t{1} << kCoarseBits;
  static constexpr std::int64_t kCoarseMask = kCoarseSlots - 1;

  /// floor(at / quantum) as a signed bucket index — monotone in `at` and
  /// well-defined for negative warm-up times, which is all the determinism
  /// argument needs from the quantization.
  [[nodiscard]] std::int64_t bucket_of(Time at) const noexcept;

  /// Routes an entry to side/near/coarse/spill by its bucket index.
  void place(const QueueEntry& entry, std::int64_t bucket);
  /// Scatters the coarse slot at coarse_cursor_ into the near wheel.
  void promote_coarse();
  /// Moves spill entries that entered the coarse horizon into the wheels.
  void pull_spill();
  /// Advances the cursor to the next occupied bucket and loads it into
  /// front_ (sorted by (time, id)).  Requires an entry resident in the
  /// wheels or the spill heap.
  void advance();
  /// Sorted-front / side-heap merge used by top() and pop(): true when the
  /// front head exists and fires before the side head.
  [[nodiscard]] bool front_is_next() const noexcept;

  double inv_quantum_;
  /// Cursor anchors lazily at the first push (times may start anywhere,
  /// including negative warm-up).
  bool anchored_ = false;
  /// Buckets <= cursor_ have been collected; wheel residents are strictly
  /// above it.
  std::int64_t cursor_ = 0;
  std::int64_t coarse_cursor_ = 0;  ///< == cursor_ >> kNearBits
  std::vector<std::vector<QueueEntry>> near_;
  std::vector<std::vector<QueueEntry>> coarse_;
  std::vector<QueueEntry> spill_;  ///< (time, id) min-heap beyond the coarse horizon
  std::vector<QueueEntry> side_;   ///< (time, id) min-heap of late arrivals (bucket <= cursor_)
  std::vector<QueueEntry> front_;  ///< current bucket, ascending (time, id)
  std::size_t front_pos_ = 0;
  std::size_t near_live_ = 0;
  std::size_t coarse_live_ = 0;
  std::size_t size_ = 0;
  Telemetry telemetry_;
};

}  // namespace gs::sim
