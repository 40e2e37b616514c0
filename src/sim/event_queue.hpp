// Pending-event set for the discrete-event simulator.
//
// Entries are keyed by (time, sequence): the sequence number makes
// same-time events fire in insertion order, which keeps runs bit-for-bit
// reproducible regardless of the backing store's internals.
//
// The store is a timing wheel (see sim/timing_wheel.hpp): a near ring of
// one-quantum buckets, a side heap for entries scheduled into the bucket
// being drained, and a spill heap past the ring's horizon, quantized at a
// constructor-given quantum.  A schedule is a bucket append or a heap push,
// a pop a cursor bump or a heap pop.  Each bucket drains through a (time,
// sequence) sort and merges with the side heap, so the pop order is exactly
// that of a single (time, sequence) priority queue.
//
// Every event is a pooled plain struct: an EventSink* plus two payload
// words stored inline in the entry.  Scheduling one never allocates — the
// entry storage IS the pool — which is what keeps the hot delivery path
// (one event per segment transfer) allocation-free.  Periodic work and the
// switch instant are sinks too (sim::PeriodicTask, the engine's switch
// sink), so one 40-byte entry kind carries the whole event plane.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "sim/timing_wheel.hpp"  // Time, EventId, QueueEntry, TimingWheel

namespace gs::sim {

/// One pooled entry of a batched pop: its fire time plus the two payload
/// words.  pop_batch hands the sink a contiguous run of these.
struct PooledBatchItem {
  Time at = 0.0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Receiver of pooled plain-struct events.  The two payload words are
/// whatever the scheduler packed (e.g. TransferPlane packs the requester
/// node id and the segment id of a delivery).
///
/// A sink may additionally opt into *batched* pops (see
/// EventQueue::pop_batch): a maximal run of consecutive — in global
/// (time, sequence) order — entries sharing this sink is then
/// delivered through one on_batch call instead of per-entry on_event
/// calls.  Batching never reorders anything; it only changes how many
/// entries one dispatch hands over, which is what lets the engine drain a
/// whole delivery wave in one pass.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(std::uint64_t a, std::uint64_t b) = 0;

  /// Opt-in to batched pops.  A batchable sink's events schedule nothing:
  /// with nothing new entering the queue, a run of consecutive heads stays
  /// the exact pop sequence even across distinct times, so a run may span
  /// timestamps (the engine's delivery drain qualifies; tick sweeps do not
  /// — they schedule re-arms and transfers).  The sink must process
  /// on_batch items in order and honour each item's own fire time (the
  /// driver's clock is parked at the *last* item's time for the duration
  /// of the batch).
  [[nodiscard]] virtual bool batchable() const noexcept { return false; }
  /// Processes a batched run in order.  The default loops on_event, which
  /// is byte-for-byte the unbatched dispatch.
  virtual void on_batch(const PooledBatchItem* items, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) on_event(items[i].a, items[i].b);
  }
};

class EventQueue {
 public:
  /// A queue whose wheel is quantized at `quantum` seconds (> 0; the
  /// engine passes its tick cadence).
  explicit EventQueue(double quantum = 1.0) : wheel_(quantum) {}

  /// Wheel telemetry: entries scheduled, entries promoted from the spill
  /// heap into the near ring, the spill heap's peak, and the late arrivals
  /// routed through the side heap.
  [[nodiscard]] const TimingWheel::Telemetry& wheel_telemetry() const noexcept {
    return wheel_.telemetry();
  }
  /// Entry storage the wheel holds, in bytes (TimingWheel::retained_bytes).
  [[nodiscard]] std::size_t wheel_retained_bytes() const noexcept {
    return wheel_.retained_bytes();
  }

  /// Schedules an event: at absolute time `at`, calls `sink.on_event(a,
  /// b)`.  Returns an id usable with cancel().  `at` may equal the current
  /// head time; ties fire in scheduling order.  The entry carries the
  /// payload inline, so this never allocates.  `sink` must outlive the
  /// event (or cancel it first).
  EventId schedule(Time at, EventSink& sink, std::uint64_t a, std::uint64_t b);

  /// Cancels a pending event.  Returns false if the event already fired,
  /// was already cancelled, or never existed.  O(pending): it scans the
  /// wheel to prove the event is still resident.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept;

  /// Time of the earliest pending event; requires !empty().
  [[nodiscard]] Time next_time() const;

  /// Pops and runs the earliest pending event; requires !empty().  Returns
  /// the time of the event that ran.
  Time pop_and_run();

  /// The earliest live entry; requires !empty().  Drops cancelled heads as
  /// a side effect (observable state is unchanged).  The reference is valid
  /// until the queue next changes.
  [[nodiscard]] const QueueEntry& top();

  /// Removes and returns the entry top() just returned, without resolving
  /// the head again; requires a top() call with no schedule, cancel or pop
  /// since (a run loop reads the head once per pop).
  QueueEntry pop_top();

  /// Pops the maximal batchable run at the head of the queue WITHOUT
  /// running it: starting from the entry top() just returned (same
  /// requirement as pop_top; its sink must be batchable), consecutive
  /// global-order heads are drained into `out` while they are entries of
  /// the same sink and fire no later than `limit`.  Returns the number of
  /// entries popped (>= 1); the caller dispatches the run via the head
  /// sink's on_batch.  The run is exactly a prefix of the sequence
  /// pop_and_run would produce (the sink's events schedule nothing), so
  /// dispatching it in order preserves every determinism guarantee.
  std::size_t pop_batch(Time limit, std::vector<PooledBatchItem>& out);

  /// Drops all pending events.
  void clear() noexcept;

 private:
  using Entry = QueueEntry;

  /// pop_batch scratch bound: correctness never depends on where a run is
  /// cut (the remainder simply forms the next batch), so this only caps
  /// the caller's scratch memory.
  static constexpr std::size_t kMaxBatch = 4096;

  TimingWheel wheel_;
  std::unordered_set<EventId> cancelled_;
  EventId next_id_ = 1;
  std::size_t live_ = 0;
};

}  // namespace gs::sim
