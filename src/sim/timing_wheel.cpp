#include "sim/timing_wheel.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace gs::sim {

TimingWheel::TimingWheel(double quantum)
    : inv_quantum_(1.0 / quantum), near_(static_cast<std::size_t>(kNearSlots)) {
  GS_CHECK_GT(quantum, 0.0);
}

std::int64_t TimingWheel::bucket_of(Time at) const noexcept {
  return static_cast<std::int64_t>(std::floor(at * inv_quantum_));
}

void TimingWheel::push(const QueueEntry& entry) {
  const std::int64_t bucket = bucket_of(entry.at);
  if (!anchored_) {
    // Anchor one bucket behind the first entry so it routes into the near
    // ring; anything later scheduled further in the past (legal before the
    // run starts) simply lands in the side heap.
    anchored_ = true;
    cursor_ = bucket - 1;
  }
  ++telemetry_.scheduled;
  ++size_;
  place(entry, bucket);
}

void TimingWheel::place(const QueueEntry& entry, std::int64_t bucket) {
  if (bucket <= cursor_) {
    // Late arrival: the bucket was already collected (or lies behind the
    // anchor).  The side heap merges with the sorted front at top()/pop().
    side_.push_back(entry);
    std::push_heap(side_.begin(), side_.end(), QueueEntryLater{});
    return;
  }
  if (bucket - cursor_ <= kNearSlots) {
    // Window (cursor_, cursor_ + kNearSlots]: exactly kNearSlots distinct
    // bucket values, one per slot.  The last one, cursor_ + kNearSlots,
    // shares the cursor's own slot, which is empty once the cursor's
    // bucket has been collected.
    near_[static_cast<std::size_t>(bucket & kNearMask)].push_back(entry);
    ++near_live_;
    return;
  }
  spill_.push_back(entry);
  std::push_heap(spill_.begin(), spill_.end(), QueueEntryLater{});
  telemetry_.spill_peak =
      std::max<std::uint64_t>(telemetry_.spill_peak, spill_.size());
}

void TimingWheel::pull_spill() {
  while (!spill_.empty()) {
    const std::int64_t bucket = bucket_of(spill_.front().at);
    if (bucket - cursor_ > kNearSlots) return;
    std::pop_heap(spill_.begin(), spill_.end(), QueueEntryLater{});
    const QueueEntry e = spill_.back();
    spill_.pop_back();
    ++telemetry_.overflow_promotions;
    place(e, bucket);
  }
}

void TimingWheel::advance() {
  for (;;) {
    if (near_live_ == 0) {
      // Everything resident lies beyond the ring's horizon: jump the cursor
      // to just before the spill head's bucket instead of stepping empty
      // slots.  The ring is empty, so every slot can take an entry.
      GS_CHECK(!spill_.empty());
      cursor_ = bucket_of(spill_.front().at) - 1;
      pull_spill();
    }
    ++cursor_;
    std::vector<QueueEntry>& slot = near_[static_cast<std::size_t>(cursor_ & kNearMask)];
    if (slot.empty()) {
      pull_spill();
      continue;
    }
    // The whole slot is exactly bucket `cursor_` (one bucket per slot; see
    // header).  The stable in-bucket order: sort by the global (time,
    // sequence) key — ids are unique, so the order is total and the drain
    // reproduces the binary heap's pop sequence bit for bit.
    near_live_ -= slot.size();
    front_.clear();
    front_.swap(slot);
    front_pos_ = 0;
    // Only now, with the cursor's slot drained, may the spill heap fill
    // bucket cursor_ + kNearSlots, which maps to that same slot.
    pull_spill();
    std::sort(front_.begin(), front_.end(), [](const QueueEntry& a, const QueueEntry& b) {
      if (a.at != b.at) return a.at < b.at;
      return a.id < b.id;
    });
    return;
  }
}

bool TimingWheel::front_is_next() const noexcept {
  if (front_pos_ >= front_.size()) return false;
  if (side_.empty()) return true;
  return !QueueEntryLater{}(front_[front_pos_], side_.front());
}

const QueueEntry& TimingWheel::top() {
  GS_CHECK_GT(size_, 0u);
  if (front_pos_ >= front_.size() && side_.empty()) advance();
  if (front_is_next()) return front_[front_pos_];
  return side_.front();
}

QueueEntry TimingWheel::pop() {
  GS_CHECK_GT(size_, 0u);
  if (front_pos_ >= front_.size() && side_.empty()) advance();
  --size_;
  if (front_is_next()) {
    return front_[front_pos_++];
  }
  std::pop_heap(side_.begin(), side_.end(), QueueEntryLater{});
  const QueueEntry out = side_.back();
  side_.pop_back();
  return out;
}

void TimingWheel::clear() noexcept {
  for (std::vector<QueueEntry>& slot : near_) slot.clear();
  spill_.clear();
  side_.clear();
  front_.clear();
  front_pos_ = 0;
  near_live_ = 0;
  size_ = 0;
  anchored_ = false;
  cursor_ = 0;
}

}  // namespace gs::sim
