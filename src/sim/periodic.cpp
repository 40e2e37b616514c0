#include "sim/periodic.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gs::sim {

PeriodicTask::PeriodicTask(Simulator& sim, Time start, Time period,
                           std::function<void(Time)> action)
    : sim_(sim), period_(period), action_(std::move(action)), next_(start) {
  GS_CHECK_GT(period, 0.0);
  pending_ = sim_.at(next_, *this, 0, 0);
}

PeriodicTask::~PeriodicTask() { cancel(); }

void PeriodicTask::cancel() {
  if (!active_) return;
  active_ = false;
  if (pending_ != 0) {
    sim_.cancel(pending_);
    pending_ = 0;
  }
}

void PeriodicTask::on_event(std::uint64_t /*a*/, std::uint64_t /*b*/) {
  pending_ = 0;
  action_(next_);
  if (!active_) return;  // the action cancelled the task
  next_ += period_;
  pending_ = sim_.at(next_, *this, 0, 0);
}

// ---------------------------------------------------------- BatchTicker ---

BatchTicker::BatchTicker(Simulator& sim, Time period, Sweep sweep)
    : sim_(sim), period_(period), sweep_(std::move(sweep)) {
  GS_CHECK_GT(period, 0.0);
  GS_CHECK(sweep_ != nullptr);
}

BatchTicker::~BatchTicker() {
  for (Group& group : groups_) {
    if (group.pending != 0) sim_.cancel(group.pending);
  }
}

std::size_t BatchTicker::add_group(Time first) {
  const std::size_t index = groups_.size();
  groups_.emplace_back();
  Group& group = groups_.back();
  group.next = first;
  group.pending = sim_.at(first, *this, index, 0);
  return index;
}

void BatchTicker::add_member(std::size_t group, std::uint32_t member) {
  GS_CHECK_LT(group, groups_.size());
  GS_CHECK(!groups_[group].sweeping) << "cannot mutate a group mid-sweep";
  Group& g = groups_[group];
  GS_CHECK(g.pending != 0) << "group went dormant; create a new one";
  g.members.push_back(member);
}

void BatchTicker::remove_member(std::size_t group, std::uint32_t member) {
  GS_CHECK_LT(group, groups_.size());
  GS_CHECK(!groups_[group].sweeping) << "cannot mutate a group mid-sweep";
  auto& members = groups_[group].members;
  const auto it = std::find(members.begin(), members.end(), member);
  GS_CHECK(it != members.end());
  members.erase(it);
}

std::size_t BatchTicker::member_count(std::size_t group) const {
  GS_CHECK_LT(group, groups_.size());
  return groups_[group].members.size();
}

bool BatchTicker::group_live(std::size_t group) const {
  GS_CHECK_LT(group, groups_.size());
  return groups_[group].pending != 0;
}

void BatchTicker::on_event(std::uint64_t a, std::uint64_t b) {
  const PooledBatchItem item{groups_[static_cast<std::size_t>(a)].next, a, b};
  on_batch(&item, 1);
}

void BatchTicker::on_batch(const PooledBatchItem* items, std::size_t count) {
  // Every item is a group firing at the same timestamp (batchable sinks
  // without batch_across_times never span times).  Concatenating the member
  // lists in item order and sweeping once equals the per-group sweeps:
  // member order is preserved, and the sweep callback (the engine's wave
  // pipeline) re-derives any member state an earlier member's commit
  // invalidated, exactly as it does across waves of one group.  The re-arms
  // collapse to the end of the run; only continuous-time transfer events
  // are scheduled during sweeps, so the collapse cannot flip any
  // cross-event ordering.
  if (count > 1) ++superbatches_;
  const Time now = groups_[static_cast<std::size_t>(items[0].a)].next;
  // Hand the callback a stable copy: a sweep that creates other groups
  // (joiner singletons) may reallocate groups_, which would dangle a
  // reference into it, so groups are re-indexed after the sweep too.
  // Mutating a sweeping group's own member list is rejected by
  // add_member/remove_member.  The scratch keeps its capacity, so steady
  // state is one memcpy per sweep, no allocation.
  batch_scratch_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    Group& group = groups_[static_cast<std::size_t>(items[i].a)];
    group.pending = 0;
    group.sweeping = true;
    batch_scratch_.insert(batch_scratch_.end(), group.members.begin(), group.members.end());
  }
  sweep_(batch_scratch_, now);
  for (std::size_t i = 0; i < count; ++i) {
    Group& group = groups_[static_cast<std::size_t>(items[i].a)];
    group.sweeping = false;
    if (group.members.empty()) continue;  // dormant: every member was removed
    // Re-arm one period ahead.  This is the fast path the engine's timing
    // wheel is quantized for: the next tick lands exactly one near-wheel
    // bucket ahead, so the re-arm is a single bucket append (no heap sift),
    // and a period's sweeps sort once as that bucket drains.
    group.next = now + period_;
    group.pending = sim_.at(group.next, *this, items[i].a, 0);
  }
}

}  // namespace gs::sim
