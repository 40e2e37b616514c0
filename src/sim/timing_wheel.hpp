// Timing wheel: the O(1) pending-event store behind sim::Simulator.
//
// The protocol's event population is clustered in the near future — fixed-
// cadence tick sweeps one period ahead and segment deliveries a few periods
// out — so a bucketed wheel quantized at the tick cadence turns a schedule
// into a vector append or a small heap push and a pop into a bump of a
// cursor through a pre-sorted bucket or a heap pop.  Two levels cover the
// full horizon:
//
//   near ring    kNearSlots buckets of one quantum each.  Every resident
//                entry's bucket index lies in (cursor, cursor + kNearSlots],
//                which is exactly one bucket per slot — collection takes the
//                whole slot, no revolution filtering.
//   spill heap   a (time, id) min-heap for anything beyond the ring's
//                horizon.  After each cursor step drains its slot, the heap
//                moves the entries that entered the horizon into the ring;
//                when the ring is empty the cursor jumps to the heap's head.
//
// With the quantum at the tick period the ring spans 256 periods, so tick
// sweeps and deliveries never leave it; the heap holds only far-future
// one-off events (a switch instant more than 256 periods out, say).
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
// planes hold only entries at or below the cursor while the ring and the
// spill heap hold only entries above it, so the merge never crosses the
// bucket order.  They are not rare: a delivery due before the next tick
// boundary lands in the current bucket, and on seed 1 of the end-to-end
// workloads 38–80% of all schedules took the side heap
// (Telemetry::late_arrivals counts them).
//
// Buffer recycling: a drained slot does not keep its buffer.  The cleared
// buffer front_ gives up goes onto a stack of spares, and a slot whose first
// entry arrives while it has no capacity takes the top spare.  The wheel so
// holds one buffer per occupied slot plus the front and the spares, each
// already grown to the size it reached: retained capacity follows the peak
// number of live events, not the number of slots the cursor has visited,
// and refills do not regrow from zero.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

namespace gs::sim {

/// Simulation time in seconds (may be negative: warm-up runs at t < 0).
using Time = double;

/// An event's sequence number, handed out by the simulator in scheduling
/// order, which makes (time, id) the total pop order.
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

/// The simulator's store.  Not thread-safe (the simulator is driven by one
/// thread).
class TimingWheel {
 public:
  struct Telemetry {
    std::uint64_t scheduled = 0;            ///< entries ever pushed
    std::uint64_t overflow_promotions = 0;  ///< spill heap -> near ring moves
    std::uint64_t spill_peak = 0;           ///< max spill-heap occupancy
    /// Entries pushed into an already-collected bucket (the side heap).
    std::uint64_t late_arrivals = 0;
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

  [[nodiscard]] const Telemetry& telemetry() const noexcept { return telemetry_; }

  /// Bytes of entry storage the wheel holds: the capacity of the ring
  /// slots, the spare buffers, the front bucket, the side heap and the
  /// spill heap, times sizeof(QueueEntry).  No buffer is ever freed, so
  /// this is also the run's peak.  O(kNearSlots + spares).
  [[nodiscard]] std::size_t retained_bytes() const noexcept;

 private:
  static constexpr int kNearBits = 8;  ///< 256 one-quantum near buckets
  static constexpr std::int64_t kNearSlots = std::int64_t{1} << kNearBits;
  static constexpr std::int64_t kNearMask = kNearSlots - 1;

  /// floor(at / quantum) as a signed bucket index — monotone in `at` and
  /// well-defined for negative warm-up times, which is all the determinism
  /// argument needs from the quantization.
  [[nodiscard]] std::int64_t bucket_of(Time at) const noexcept;

  /// Routes an entry to side/near/spill by its bucket index.
  void place(const QueueEntry& entry, std::int64_t bucket);
  /// Moves spill entries that entered the ring's horizon into the ring.
  /// Runs only once the cursor's own slot is empty: the horizon's last
  /// bucket, cursor_ + kNearSlots, shares that slot.
  void pull_spill();
  /// Advances the cursor to the next occupied bucket and loads it into
  /// front_ (sorted by (time, id)).  Requires an entry resident in the
  /// ring or the spill heap.
  void advance();
  /// Sorted-front / side-heap merge used by top() and pop(): true when the
  /// front head exists and fires before the side head.
  [[nodiscard]] bool front_is_next() const noexcept;

  double inv_quantum_;
  /// Cursor anchors lazily at the first push (times may start anywhere,
  /// including negative warm-up).
  bool anchored_ = false;
  /// Buckets <= cursor_ have been collected; ring residents are strictly
  /// above it.
  std::int64_t cursor_ = 0;
  std::vector<std::vector<QueueEntry>> near_;
  /// Cleared bucket buffers with capacity, handed to slots that fill up
  /// from zero capacity (see header).
  std::vector<std::vector<QueueEntry>> spares_;
  std::vector<QueueEntry> spill_;  ///< (time, id) min-heap beyond the ring's horizon
  std::vector<QueueEntry> side_;   ///< (time, id) min-heap of late arrivals (bucket <= cursor_)
  std::vector<QueueEntry> front_;  ///< current bucket, ascending (time, id)
  std::size_t front_pos_ = 0;
  std::size_t near_live_ = 0;
  std::size_t size_ = 0;
  Telemetry telemetry_;
};

}  // namespace gs::sim
