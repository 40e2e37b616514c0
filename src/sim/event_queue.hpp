// Pending-event set for the discrete-event simulator.
//
// Entries are keyed by (time, sequence): the sequence number makes
// same-time events fire in insertion order, which keeps runs bit-for-bit
// reproducible regardless of the backing store's internals.
//
// The store is a hierarchical timing wheel (see sim/timing_wheel.hpp),
// quantized at a constructor-given quantum: amortized O(1) schedule and
// O(bucket) pops.  Each bucket drains through a (time, sequence) sort, so
// the pop order is exactly that of a single (time, sequence) priority
// queue.
//
// The queue is optionally *sharded*: set_shard_count(P) partitions the
// pending set into P independent wheels, and schedule_on(shard, ...) places
// an event in a specific partition (the sharded engine routes each peer's
// delivery events to that peer's shard).  Sequence numbers stay GLOBAL
// across shards, and the pop side merges the shard heads by
// (time, sequence) — so the execution order is exactly the order a single
// unsharded queue would produce, no matter how events are distributed.
// That merge rule is what keeps sharded runs bit-identical to sequential
// ones; the shard dimension only buys smaller stores and a
// per-peer-partitioned pending set.
//
// Two kinds of entry share the one sequence domain (so their mutual
// ordering at a timestamp is still insertion order):
//   - closure events: an arbitrary std::function<void()>;
//   - pooled plain-struct events: an EventSink* plus two payload words
//     stored inline in the entry.  Scheduling one never allocates —
//     the entry storage IS the pool — which is what keeps the hot delivery
//     path (one event per segment transfer) allocation-free.
#pragma once

#include <cstdint>
#include <functional>
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
/// (time, sequence) order — pooled entries sharing this sink is then
/// delivered through one on_batch call instead of per-entry on_event
/// calls.  Batching never reorders anything; it only changes how many
/// entries one dispatch hands over, which is what lets the engine drain a
/// whole delivery wave (or a super-batch of tick sweeps) in one pass.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(std::uint64_t a, std::uint64_t b) = 0;

  /// Opt-in to batched pops.  A batchable sink must process on_batch items
  /// in order and honour each item's own fire time (the driver's clock is
  /// parked at the *last* item's time for the duration of the batch).
  [[nodiscard]] virtual bool batchable() const noexcept { return false; }
  /// When false (default) a batch only spans entries with one identical
  /// timestamp.  A sink may return true ONLY if processing its events
  /// schedules nothing: with nothing new entering the queue, a run of
  /// consecutive heads stays the exact pop sequence even across distinct
  /// times (the engine's delivery drain qualifies; tick sweeps do not —
  /// they schedule re-arms and transfers).
  [[nodiscard]] virtual bool batch_across_times() const noexcept { return false; }
  /// Processes a batched run in order.  The default loops on_event, which
  /// is byte-for-byte the unbatched dispatch.
  virtual void on_batch(const PooledBatchItem* items, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) on_event(items[i].a, items[i].b);
  }
};

class EventQueue {
 public:
  /// One shard whose wheel is quantized at `quantum` seconds (> 0; the
  /// engine passes its tick cadence).
  explicit EventQueue(double quantum = 1.0);

  /// Partitions the pending set into `shards` independent stores (>= 1).
  /// Must be called while the queue is empty — pending events are never
  /// rehomed (rejected loudly; silently redistributing them would move
  /// entries between schedule_on targets).  Pop order is unaffected (global
  /// (time, sequence) merge); only schedule_on targets change meaning.
  void set_shard_count(std::size_t shards);
  [[nodiscard]] std::size_t shard_count() const noexcept { return wheels_.size(); }

  /// Wheel telemetry aggregated over the shards: entries scheduled through
  /// the wheels, entries promoted from the overflow wheel / spill heap into
  /// finer levels, and the spill heap's peak occupancy (max across shards).
  struct WheelTelemetry {
    std::uint64_t scheduled = 0;
    std::uint64_t overflow_promotions = 0;
    std::uint64_t spill_peak = 0;
  };
  [[nodiscard]] WheelTelemetry wheel_telemetry() const noexcept;

  /// Schedules `action` at absolute time `at` on shard 0.  Returns an id
  /// usable with cancel().  `at` may equal the current head time; ties fire
  /// in scheduling order.
  EventId schedule(Time at, std::function<void()> action);

  /// Schedules a pooled plain-struct event on shard 0: at time `at`, calls
  /// `sink.on_event(a, b)`.  Same ordering domain and cancellation rules as
  /// the closure overload, but the entry carries the payload inline, so
  /// this never allocates.  `sink` must outlive the event.
  EventId schedule(Time at, EventSink& sink, std::uint64_t a, std::uint64_t b);

  /// schedule() variants targeting a specific shard's store.
  EventId schedule_on(std::size_t shard, Time at, std::function<void()> action);
  EventId schedule_on(std::size_t shard, Time at, EventSink& sink, std::uint64_t a,
                      std::uint64_t b);

  /// Cancels a pending event.  Returns false if the event already fired,
  /// was already cancelled, or never existed.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept;

  /// Time of the earliest pending event; requires !empty().
  [[nodiscard]] Time next_time() const;

  /// Pops and runs the earliest pending event (the (time, sequence) min
  /// across every shard head); requires !empty().  Returns the time of the
  /// event that ran; `shard_out`, when non-null, receives the shard it was
  /// popped from.
  Time pop_and_run(std::size_t* shard_out = nullptr);

  /// True when the next entry to pop is a pooled event whose sink opted
  /// into batched pops; requires !empty().
  [[nodiscard]] bool top_is_batchable();

  /// Pops the maximal batchable run at the head of the queue WITHOUT
  /// running it: starting from the current head (which must satisfy
  /// top_is_batchable()), consecutive global-order heads are drained into
  /// `out` while they are pooled entries of the same sink, fire no later
  /// than `limit`, and — unless the sink batches across times — share the
  /// first entry's timestamp.  Returns the number of entries popped (>= 1)
  /// and stores the common sink in `sink_out`; the caller dispatches the
  /// run via sink->on_batch.  The run is exactly a prefix of the sequence
  /// pop_and_run would produce, so dispatching it in order preserves every
  /// determinism guarantee.
  std::size_t pop_batch(Time limit, std::vector<PooledBatchItem>& out, EventSink** sink_out);

  /// Drops all pending events.
  void clear() noexcept;

 private:
  using Entry = QueueEntry;
  using Later = QueueEntryLater;

  EventId push_entry(std::size_t shard, Entry entry);
  /// Removes cancelled entries sitting at `shard`'s head.
  void skip_cancelled(std::size_t shard);
  /// Shard holding the globally earliest live entry; requires !empty().
  /// Drops cancelled heads as a side effect and caches the winner so the
  /// usual next_time() + pop_and_run() pair scans the shard heads once.
  [[nodiscard]] std::size_t top_shard();

  static constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);
  /// pop_batch scratch bound: correctness never depends on where a run is
  /// cut (the remainder simply forms the next batch), so this only caps
  /// the caller's scratch memory.
  static constexpr std::size_t kMaxBatch = 4096;

  double quantum_;
  /// One timing wheel per shard (the unsharded queue is the 1-shard case).
  std::vector<TimingWheel> wheels_;
  std::unordered_set<EventId> cancelled_;
  EventId next_id_ = 1;
  std::size_t live_ = 0;
  /// top_shard() memo; kNoShard whenever the stores may have changed.
  std::size_t cached_top_ = kNoShard;
};

}  // namespace gs::sim
