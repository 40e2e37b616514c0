// Discrete-event simulation driver: a clock plus the pending-event set.
//
// Time is allowed to be negative — experiments use the paper's convention
// where t=0 is the source-switch instant and warm-up runs at t<0.
//
// The pending set is a timing wheel (sim/timing_wheel.hpp) quantized at a
// constructor-given quantum (the engine passes the tick cadence tau, so a
// sweep's re-arm lands one bucket ahead; a delivery due before the next
// boundary lands in the collected current bucket and takes the wheel's side
// heap).  Entries are keyed by (time, sequence): the simulator hands out
// the sequence numbers in scheduling order, so same-time events fire in
// insertion order and runs are bit-for-bit reproducible whatever the
// wheel's internals.
//
// Every event is a pooled plain struct: an EventSink* plus two payload
// words stored inline in the entry.  Scheduling one never allocates — the
// entry storage IS the pool — which keeps the hot delivery path (one event
// per segment transfer) allocation-free.  Periodic work, the switch instant
// and deliveries are all sinks (sim/periodic.hpp, the engine's sinks), so
// one 40-byte entry kind carries the whole event plane.  A scheduled event
// always fires, so a sink must outlive its pending events (or the
// simulator must never run again).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/timing_wheel.hpp"  // Time, EventId, QueueEntry, TimingWheel

namespace gs::sim {

/// Receiver of pooled plain-struct events.  The two payload words are
/// whatever the scheduler packed (e.g. the engine packs the requester node
/// id and the segment id of a delivery).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(std::uint64_t a, std::uint64_t b) = 0;
};

/// One pooled entry of a batched pop: its fire time plus the two payload
/// words.  The simulator hands the batch sink a contiguous run of these.
struct PooledBatchItem {
  Time at = 0.0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// A sink whose events may pop in runs (Simulator::set_batch_sink): a
/// maximal run of consecutive — in global (time, sequence) order — entries
/// of this sink arrives through one on_batch call instead of per-entry
/// on_event calls.  Batching never reorders anything; it only changes how
/// many entries one dispatch hands over, which is what lets the engine drain
/// a whole delivery wave in one pass.
///
/// The sink's events must schedule nothing: with nothing new entering the
/// wheel, a run of consecutive heads stays the exact pop sequence even
/// across distinct times, so a run may span timestamps.  on_batch must
/// process the items in order and honour each item's own fire time (the
/// clock is parked at the *last* item's time for the duration of the batch).
class BatchSink : public EventSink {
 public:
  virtual void on_batch(const PooledBatchItem* items, std::size_t count) = 0;
};

class Simulator {
 public:
  /// Starts the clock at `start` (may be negative for warm-up phases) over
  /// a timing wheel quantized at `wheel_quantum` seconds (> 0).
  explicit Simulator(Time start = 0.0, double wheel_quantum = 1.0)
      : wheel_(wheel_quantum), now_(start) {}

  [[nodiscard]] Time now() const noexcept { return now_; }

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

  /// Schedules `sink.on_event(a, b)` at absolute time `when` (must not be
  /// in the past) / `delay >= 0` seconds from now.  Ties fire in scheduling
  /// order.  Never allocates: the payload is stored inline in the entry.
  void at(Time when, EventSink& sink, std::uint64_t a, std::uint64_t b);
  void after(Time delay, EventSink& sink, std::uint64_t a, std::uint64_t b);

  /// Registers the one sink whose events pop in runs (see BatchSink); null
  /// pops every event singly.
  void set_batch_sink(BatchSink* sink) noexcept { batch_sink_ = sink; }

  /// Runs events until the wheel drains or the clock passes `until`
  /// (events at exactly `until` run).  Returns the number of events run.
  ///
  /// Whenever the head event belongs to the batch sink, the maximal run of
  /// consecutive events of that sink (at most kMaxBatch, none past
  /// `until`) is dispatched as ONE on_batch call; the clock is parked at
  /// the run's last item.
  std::size_t run_until(Time until);

  /// Runs until the wheel drains or stop() is called.
  std::size_t run_all();

  /// Makes the current run_* call return after the in-flight event.
  void stop() noexcept { stop_requested_ = true; }

  [[nodiscard]] bool pending() const noexcept { return !wheel_.empty(); }

 private:
  /// Batch scratch bound: correctness never depends on where a run is cut
  /// (the remainder simply forms the next batch), so this only caps the
  /// scratch memory.
  static constexpr std::size_t kMaxBatch = 4096;

  /// Shared drive loop of run_until/run_all (`until` = +inf for run_all).
  std::size_t drive(Time until);

  TimingWheel wheel_;
  Time now_;
  EventId next_id_ = 1;
  bool stop_requested_ = false;
  BatchSink* batch_sink_ = nullptr;
  /// Batched-run scratch (capacity reused across batches).
  std::vector<PooledBatchItem> batch_scratch_;
};

}  // namespace gs::sim
