#include "sim/event_queue.hpp"

#include "util/check.hpp"

namespace gs::sim {

EventId EventQueue::schedule(Time at, EventSink& sink, std::uint64_t a, std::uint64_t b) {
  const EventId id = next_id_++;
  wheel_.push({at, id, &sink, a, b});
  ++live_;
  return id;
}

bool EventQueue::cancel(EventId id) {
  if (id == 0 || id >= next_id_) return false;
  // Lazy deletion: mark and skip at pop time.  A second cancel of the same
  // id must fail, as must cancelling an event that already ran; both are
  // detected by the insert result and the live counter bookkeeping.
  const bool inserted = cancelled_.insert(id).second;
  if (!inserted) return false;
  // The id might belong to an event that already fired; verify it is still
  // resident.  A linear scan is fine: a live run cancels one event per
  // switch (the old session's generation task), and an engine's teardown
  // clears the queue first (Simulator::clear), so its sinks' destructor
  // cancels scan an empty wheel.
  if (!wheel_.any([id](const Entry& e) { return e.id == id; })) {
    cancelled_.erase(id);
    return false;
  }
  GS_CHECK_GT(live_, 0u);
  --live_;
  return true;
}

bool EventQueue::empty() const noexcept { return live_ == 0; }

std::size_t EventQueue::size() const noexcept { return live_; }

const QueueEntry& EventQueue::top() {
  for (;;) {
    const Entry& head = wheel_.top();
    // Cancels are rare, so the common case skips the hash lookup.
    if (cancelled_.empty()) return head;
    const auto it = cancelled_.find(head.id);
    if (it == cancelled_.end()) return head;
    cancelled_.erase(it);
    wheel_.pop();
  }
}

Time EventQueue::next_time() const {
  GS_CHECK(!empty());
  // top() is non-const (it drops cancelled heads), but observable state is
  // unchanged — logical constness via const_cast.
  return const_cast<EventQueue*>(this)->top().at;
}

Time EventQueue::pop_and_run() {
  GS_CHECK(!empty());
  static_cast<void>(top());  // drops cancelled heads
  const Entry entry = pop_top();
  entry.sink->on_event(entry.a, entry.b);
  return entry.at;
}

QueueEntry EventQueue::pop_top() {
  GS_CHECK(!empty());
  // top() already dropped the cancelled heads, so the wheel's head is live.
  --live_;
  return wheel_.pop();
}

std::size_t EventQueue::pop_batch(Time limit, std::vector<PooledBatchItem>& out) {
  out.clear();
  const Entry first = pop_top();
  out.push_back({first.at, first.a, first.b});
  while (out.size() < kMaxBatch && !empty()) {
    // Extend only while the head continues the run: same sink, within the
    // horizon.  Stopping at the first mismatch keeps the batch a prefix of
    // the canonical pop order.
    const Entry& next = top();
    if (next.sink != first.sink || next.at > limit) break;
    const Entry entry = pop_top();
    out.push_back({entry.at, entry.a, entry.b});
  }
  return out.size();
}

void EventQueue::clear() noexcept {
  wheel_.clear();
  cancelled_.clear();
  live_ = 0;
}

}  // namespace gs::sim
