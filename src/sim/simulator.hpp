// Discrete-event simulation driver: a clock plus the pending-event set.
//
// Time is allowed to be negative — experiments use the paper's convention
// where t=0 is the source-switch instant and warm-up runs at t<0.
//
// The pending set is EventQueue's timing wheel; its quantum is a
// constructor argument (the engine passes the tick cadence tau, so sweeps
// land on bucket boundaries and deliveries fill the current bucket).
// Every event is an EventSink call with two inline payload words; periodic
// work is a sink too (sim/periodic.hpp).
#pragma once

#include <limits>

#include "sim/event_queue.hpp"

namespace gs::sim {

class Simulator {
 public:
  /// Starts the clock at `start` (may be negative for warm-up phases) over
  /// a timing wheel quantized at `wheel_quantum` seconds (> 0).
  explicit Simulator(Time start = 0.0, double wheel_quantum = 1.0)
      : queue_(wheel_quantum), now_(start) {}

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// The pending set's wheel telemetry (see EventQueue::wheel_telemetry).
  [[nodiscard]] const TimingWheel::Telemetry& wheel_telemetry() const noexcept {
    return queue_.wheel_telemetry();
  }

  /// Schedules `sink.on_event(a, b)` at absolute time `when` (must not be
  /// in the past) / `delay >= 0` seconds from now.  Never allocates: the
  /// payload is stored inline in the queue entry.
  EventId at(Time when, EventSink& sink, std::uint64_t a, std::uint64_t b);
  EventId after(Time delay, EventSink& sink, std::uint64_t a, std::uint64_t b);
  /// Cancels a pending event; false if it already fired.
  bool cancel(EventId id) { return queue_.cancel(id); }
  /// Drops every pending event without running it.  An owner tearing down
  /// a run calls this before destroying its sinks, so their destructor
  /// cancels find nothing to scan.
  void clear() noexcept { queue_.clear(); }

  /// Runs events until the queue drains or the clock passes `until`
  /// (events at exactly `until` run).  Returns the number of events run.
  ///
  /// Batched pops (run_all too): whenever the head event's sink opted in
  /// (EventSink::batchable), the maximal run of consecutive events of that
  /// sink is dispatched as ONE on_batch call instead of per-event on_event
  /// calls.  The run is exactly a prefix of the canonical pop order, so
  /// execution semantics are unchanged; only dispatch granularity grows
  /// (the engine's parallel delivery drain rides on this).  During a batch
  /// the clock is parked at the *last* item's time; batchable sinks use
  /// each item's own `at` for per-item time semantics.
  std::size_t run_until(Time until);

  /// Runs until the queue drains or stop() is called.
  std::size_t run_all();

  /// Makes the current run_* call return after the in-flight event.
  void stop() noexcept { stop_requested_ = true; }

  [[nodiscard]] bool pending() const noexcept { return !queue_.empty(); }

 private:
  /// Shared drive loop of run_until/run_all (`until` = +inf for run_all).
  std::size_t drive(Time until);

  EventQueue queue_;
  Time now_;
  bool stop_requested_ = false;
  /// pop_batch scratch (capacity reused across batches).
  std::vector<PooledBatchItem> batch_scratch_;
};

}  // namespace gs::sim
