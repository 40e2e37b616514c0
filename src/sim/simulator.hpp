// Discrete-event simulation driver: a clock plus the pending-event set.
//
// Time is allowed to be negative — experiments use the paper's convention
// where t=0 is the source-switch instant and warm-up runs at t<0.
//
// The pending set is EventQueue's timing wheel; its quantum is a
// constructor argument (the engine passes the tick cadence tau, so sweeps
// land on bucket boundaries and deliveries fill the current bucket).
//
// The driver can run *sharded*: enable_shards(P, router) partitions the
// pending set into P per-shard queues (see EventQueue::set_shard_count) and
// routes every pooled plain-struct event through `router` to pick its
// shard.  Closure events always live on shard 0 (the control shard: ticks,
// generation, churn, switches).  Execution order is unchanged — the queue
// merges shard heads by (time, global sequence), so a sharded run pops the
// exact event sequence an unsharded run would — but every event scheduled
// from inside one shard's event into a *different* shard is counted as
// cross-shard outbox traffic (deliveries crossing peer shards), the
// diagnostic for how much inter-shard talk the overlay generates.
#pragma once

#include <functional>
#include <limits>

#include "sim/event_queue.hpp"

namespace gs::sim {

class Simulator {
 public:
  /// Picks the shard of a pooled event from its sink and payload (e.g. the
  /// engine routes deliveries by target peer id).  Must be deterministic.
  using ShardRouter = std::function<std::size_t(const EventSink& sink, std::uint64_t a,
                                                std::uint64_t b)>;

  /// Starts the clock at `start` (may be negative for warm-up phases) over
  /// a timing wheel quantized at `wheel_quantum` seconds (> 0).
  explicit Simulator(Time start = 0.0, double wheel_quantum = 1.0)
      : queue_(wheel_quantum), now_(start) {}

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Splits the pending set into `shards` per-shard queues and installs the
  /// pooled-event router.  Call before anything is scheduled.  Shard 0 is
  /// the control shard (all closure events); the router may use the full
  /// range [0, shards).
  void enable_shards(std::size_t shards, ShardRouter router);
  [[nodiscard]] std::size_t shard_count() const noexcept { return queue_.shard_count(); }

  /// Wheel telemetry aggregated over the shards.
  [[nodiscard]] EventQueue::WheelTelemetry wheel_telemetry() const noexcept {
    return queue_.wheel_telemetry();
  }

  /// Batched pops: when enabled, a maximal run of consecutive pooled
  /// events whose sink opted in (EventSink::batchable) is dispatched as
  /// ONE on_batch call instead of per-event on_event calls.  The run is
  /// exactly a prefix of the canonical pop order, so execution semantics
  /// are unchanged; only dispatch granularity grows (the engine's parallel
  /// delivery drain and super-batched tick sweeps ride on this).  During a
  /// batch the clock is parked at the *last* item's time; batchable sinks
  /// use each item's own `at` for per-item time semantics.
  void enable_batch_pop(bool on) { batch_pop_ = on; }
  [[nodiscard]] bool batch_pop_enabled() const noexcept { return batch_pop_; }

  /// Schedules at an absolute time; must not be in the past.
  EventId at(Time when, std::function<void()> action);
  /// Schedules `delay >= 0` seconds from now.
  EventId after(Time delay, std::function<void()> action);
  /// Pooled plain-struct variants: at `when` / after `delay`, calls
  /// `sink.on_event(a, b)`.  Never allocates (payload is stored inline in
  /// the queue entry); same ordering/cancellation semantics as the closure
  /// overloads.  Routed to a shard when sharding is enabled.
  EventId at(Time when, EventSink& sink, std::uint64_t a, std::uint64_t b);
  EventId after(Time delay, EventSink& sink, std::uint64_t a, std::uint64_t b);
  /// Cancels a pending event; false if it already fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs events until the queue drains or the clock passes `until`
  /// (events at exactly `until` run).  Returns the number of events run.
  std::size_t run_until(Time until);

  /// Runs until the queue drains or stop() is called.
  std::size_t run_all();

  /// Makes the current run_* call return after the in-flight event.
  void stop() noexcept { stop_requested_ = true; }

  [[nodiscard]] bool pending() const noexcept { return !queue_.empty(); }
  [[nodiscard]] std::size_t pending_count() const noexcept { return queue_.size(); }

  /// Events scheduled from inside an executing event into a different
  /// shard's queue (0 while unsharded) — the cross-shard outbox volume.
  [[nodiscard]] std::uint64_t cross_shard_scheduled() const noexcept {
    return cross_shard_scheduled_;
  }

 private:
  [[nodiscard]] std::size_t route(const EventSink& sink, std::uint64_t a, std::uint64_t b);
  /// Shared drive loop of run_until/run_all (`until` = +inf for run_all).
  std::size_t drive(Time until);

  EventQueue queue_;
  ShardRouter router_;
  Time now_;
  bool stop_requested_ = false;
  bool batch_pop_ = false;
  /// Shard of the event currently executing (0 when idle/unsharded).
  std::size_t executing_shard_ = 0;
  std::uint64_t cross_shard_scheduled_ = 0;
  /// pop_batch scratch (capacity reused across batches).
  std::vector<PooledBatchItem> batch_scratch_;
};

}  // namespace gs::sim
