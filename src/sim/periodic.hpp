// Periodic work as simulator sinks.
//
// PeriodicTask re-arms one callback every `period` seconds: segment
// generation, the churn process, samplers and other engine-wide periodic
// work.
//
// BatchTicker drives the per-node scheduling ticks (τ = 1 s in the paper):
// groups of members that share a tick phase are swept by ONE simulator
// event per group per period instead of one PeriodicTask per member, and a
// node leaving the overlay is removed from its group.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/simulator.hpp"

namespace gs::sim {

/// Owns a repeating event.  The task is its own sink: each firing runs the
/// action at the scheduled time, then re-arms one period later — after
/// everything the action scheduled, so the re-arm takes the next event id.
/// The repetition ends where it was told to at construction (the first
/// fire time at or past `until` is never scheduled) or when the action
/// calls cancel().  The action must not destroy its own task, and a task
/// with a pending firing must outlive it (or the simulator must not run
/// again).
class PeriodicTask final : public EventSink {
 public:
  /// Schedules `action` at start, start+period, start+2*period, ... for
  /// every fire time strictly below `until`.  `start` is absolute; must be
  /// >= sim.now().
  PeriodicTask(Simulator& sim, Time start, Time period, std::function<void(Time)> action,
               Time until = std::numeric_limits<Time>::infinity());

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Stops the repetition: the firing in progress does not re-arm.  Only
  /// the task's own action may call it (a GS_CHECK holds it there), so
  /// the task never has an event pending to withdraw.
  void cancel();

 private:
  void on_event(std::uint64_t a, std::uint64_t b) override;
  /// Schedules the firing at next_ unless it lies at or past until_.
  void arm();

  Simulator& sim_;
  Time period_;
  Time until_;
  std::function<void(Time)> action_;
  Time next_;
  bool firing_ = false;
  bool cancelled_ = false;
};

/// Batched tick dispatch: each group holds members that tick at the same
/// times (`first + k * period`), and one simulator event per group per
/// period sweeps them all.
///
/// The dispatch order is *exactly* the order the equivalent per-member
/// PeriodicTasks would produce (the reference sim_property_test holds the
/// ticker to):
///   - members of a group are swept in add order (a per-member task armed
///     later would carry a later event sequence number);
///   - groups whose fire times tie sweep one after another, one event
///     each, in group-creation order (creation schedules each group's
///     first event, claiming a sequence slot, and re-arms happen in sweep
///     order every period thereafter);
///   - the group's re-arm is scheduled at the end of its sweep, collapsing
///     the per-member run of re-arm sequence numbers into one.  No foreign
///     event can land inside that run (only deliveries are scheduled while
///     a sweep executes, and they target continuous, strictly later
///     times), so the collapse preserves every cross-event ordering.
class BatchTicker final : public EventSink {
 public:
  /// Receives the live member list (add order) of the firing group.  The
  /// callee ticks every member at `now` with the outcome of ticking them
  /// one by one in list order (the engine does exactly that sequentially,
  /// and through barrier-phased passes — plan in parallel, commit in
  /// member order — when sharded).  The list is a stable copy; the callee
  /// must not keep it.
  using Sweep = std::function<void(const std::vector<std::uint32_t>& members, Time now)>;

  BatchTicker(Simulator& sim, Time period, Sweep sweep);

  BatchTicker(const BatchTicker&) = delete;
  BatchTicker& operator=(const BatchTicker&) = delete;

  /// Creates a group whose sweeps fire at `first + k * period` (`first` >=
  /// sim.now()) and returns its index.  The first event is scheduled here,
  /// so relative to other events already pending at `first` the group
  /// orders by this call — the sequence slot a PeriodicTask armed at the
  /// same call site would take.
  std::size_t add_group(Time first);

  /// Appends `member` to `group`'s sweep, after all existing members.  The
  /// group must still be live (a group goes dormant once it fires with no
  /// members left).
  void add_member(std::size_t group, std::uint32_t member);

  /// Removes `member` from `group`; remaining members keep their order.
  void remove_member(std::size_t group, std::uint32_t member);

  [[nodiscard]] std::size_t group_count() const noexcept { return groups_.size(); }
  [[nodiscard]] std::size_t member_count(std::size_t group) const;
  /// True until the group fires with no members (then it stops re-arming).
  [[nodiscard]] bool group_live(std::size_t group) const;

 private:
  struct Group {
    Time next = 0.0;
    /// A sweep event is pending (false once the group went dormant).
    bool armed = false;
    std::vector<std::uint32_t> members;
    /// Guard: a sweep callback cannot mutate a member list being iterated.
    bool sweeping = false;
  };

  /// Sweeps group `a` at its fire time, then re-arms it.
  void on_event(std::uint64_t a, std::uint64_t b) override;

  Simulator& sim_;
  Time period_;
  Sweep sweep_;
  /// Stable member-list copy handed to sweep_ (reused capacity).
  std::vector<std::uint32_t> sweep_scratch_;
  std::vector<Group> groups_;
};

}  // namespace gs::sim
