#include "sim/periodic.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gs::sim {

PeriodicTask::PeriodicTask(Simulator& sim, Time start, Time period,
                           std::function<void(Time)> action, Time until)
    : sim_(sim), period_(period), until_(until), action_(std::move(action)), next_(start) {
  GS_CHECK_GT(period, 0.0);
  arm();
}

void PeriodicTask::cancel() {
  GS_CHECK(firing_) << "a periodic task may only be cancelled by its own action";
  cancelled_ = true;
}

void PeriodicTask::arm() {
  if (next_ < until_) sim_.at(next_, *this, 0, 0);
}

void PeriodicTask::on_event(std::uint64_t /*a*/, std::uint64_t /*b*/) {
  firing_ = true;
  action_(next_);
  firing_ = false;
  if (cancelled_) return;
  next_ += period_;
  arm();
}

// ---------------------------------------------------------- BatchTicker ---

BatchTicker::BatchTicker(Simulator& sim, Time period, Sweep sweep)
    : sim_(sim), period_(period), sweep_(std::move(sweep)) {
  GS_CHECK_GT(period, 0.0);
  GS_CHECK(sweep_ != nullptr);
}

std::size_t BatchTicker::add_group(Time first) {
  const std::size_t index = groups_.size();
  groups_.emplace_back();
  Group& group = groups_.back();
  group.next = first;
  group.armed = true;
  sim_.at(first, *this, index, 0);
  return index;
}

void BatchTicker::add_member(std::size_t group, std::uint32_t member) {
  GS_CHECK_LT(group, groups_.size());
  GS_CHECK(!groups_[group].sweeping) << "cannot mutate a group mid-sweep";
  Group& g = groups_[group];
  GS_CHECK(g.armed) << "group went dormant; create a new one";
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
  return groups_[group].armed;
}

void BatchTicker::on_event(std::uint64_t a, std::uint64_t /*b*/) {
  const auto index = static_cast<std::size_t>(a);
  Group& firing = groups_[index];
  const Time now = firing.next;
  firing.armed = false;
  firing.sweeping = true;
  // Hand the callback a stable copy: a sweep that creates other groups
  // (joiner singletons) may reallocate groups_, which would dangle a
  // reference into it, so the group is re-indexed after the sweep too.
  // Mutating the sweeping group's own member list is rejected by
  // add_member/remove_member.  The scratch keeps its capacity, so steady
  // state is one memcpy per sweep, no allocation.
  sweep_scratch_.assign(firing.members.begin(), firing.members.end());
  sweep_(sweep_scratch_, now);
  Group& group = groups_[index];
  group.sweeping = false;
  if (group.members.empty()) return;  // dormant: every member was removed
  // Re-arm one period ahead.  This is the fast path the engine's timing
  // wheel is quantized for: the next tick lands exactly one near-wheel
  // bucket ahead, so the re-arm is a single bucket append (no heap sift),
  // and a period's sweeps sort once as that bucket drains.
  group.next = now + period_;
  group.armed = true;
  sim_.at(group.next, *this, a, 0);
}

}  // namespace gs::sim
