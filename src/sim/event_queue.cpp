#include "sim/event_queue.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gs::sim {

EventQueue::EventQueue(double quantum) : quantum_(quantum), wheels_(1, TimingWheel(quantum)) {}

void EventQueue::set_shard_count(std::size_t shards) {
  GS_CHECK_GE(shards, 1u);
  GS_CHECK(empty()) << "shard layout may only change while the queue is empty";
  wheels_.assign(shards, TimingWheel(quantum_));
  cached_top_ = kNoShard;
}

EventQueue::WheelTelemetry EventQueue::wheel_telemetry() const noexcept {
  WheelTelemetry out;
  for (const TimingWheel& wheel : wheels_) {
    const TimingWheel::Telemetry& t = wheel.telemetry();
    out.scheduled += t.scheduled;
    out.overflow_promotions += t.overflow_promotions;
    out.spill_peak = std::max(out.spill_peak, t.spill_peak);
  }
  return out;
}

EventId EventQueue::push_entry(std::size_t shard, Entry entry) {
  GS_CHECK_LT(shard, shard_count());
  entry.id = next_id_++;
  const EventId id = entry.id;
  wheels_[shard].push(std::move(entry));
  ++live_;
  cached_top_ = kNoShard;  // the new entry may beat the cached head
  return id;
}

EventId EventQueue::schedule(Time at, std::function<void()> action) {
  return schedule_on(0, at, std::move(action));
}

EventId EventQueue::schedule(Time at, EventSink& sink, std::uint64_t a, std::uint64_t b) {
  return schedule_on(0, at, sink, a, b);
}

EventId EventQueue::schedule_on(std::size_t shard, Time at, std::function<void()> action) {
  Entry entry;
  entry.at = at;
  entry.action = std::move(action);
  return push_entry(shard, std::move(entry));
}

EventId EventQueue::schedule_on(std::size_t shard, Time at, EventSink& sink, std::uint64_t a,
                                std::uint64_t b) {
  Entry entry;
  entry.at = at;
  entry.sink = &sink;
  entry.a = a;
  entry.b = b;
  return push_entry(shard, std::move(entry));
}

bool EventQueue::cancel(EventId id) {
  if (id == 0 || id >= next_id_) return false;
  // Lazy deletion: mark and skip at pop time.  A second cancel of the same
  // id must fail, as must cancelling an event that already ran; both are
  // detected by the insert result and the live counter bookkeeping.
  const bool inserted = cancelled_.insert(id).second;
  if (!inserted) return false;
  // The id might belong to an event that already fired; verify it is still
  // resident.  Linear scan is fine: cancels are rare (churn only).
  const bool pending = std::any_of(wheels_.begin(), wheels_.end(), [id](const TimingWheel& w) {
    return w.any([id](const Entry& e) { return e.id == id; });
  });
  if (!pending) {
    cancelled_.erase(id);
    return false;
  }
  GS_CHECK_GT(live_, 0u);
  --live_;
  cached_top_ = kNoShard;  // the cached head may be the cancelled entry
  return true;
}

bool EventQueue::empty() const noexcept { return live_ == 0; }

std::size_t EventQueue::size() const noexcept { return live_; }

void EventQueue::skip_cancelled(std::size_t shard) {
  TimingWheel& wheel = wheels_[shard];
  while (!wheel.empty()) {
    const auto it = cancelled_.find(wheel.top().id);
    if (it == cancelled_.end()) return;
    cancelled_.erase(it);
    wheel.pop();
  }
}

std::size_t EventQueue::top_shard() {
  if (cached_top_ != kNoShard) return cached_top_;
  // The deterministic cross-shard merge: among the live shard heads, the
  // (time, sequence) minimum is exactly the entry a single global queue
  // would pop next.  Linear scan — shard counts are small (cores, not
  // peers) and the per-shard wheels already did the ordering work.  The
  // memo makes the run loop's next_time() + pop_and_run() pair pay for one
  // scan, not two.
  const std::size_t shards = shard_count();
  std::size_t best = shards;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    skip_cancelled(shard);
    if (wheels_[shard].empty()) continue;
    if (best == shards || Later{}(wheels_[best].top(), wheels_[shard].top())) {
      best = shard;
    }
  }
  GS_CHECK_LT(best, shards);
  cached_top_ = best;
  return best;
}

Time EventQueue::next_time() const {
  GS_CHECK(!empty());
  // top_shard() is non-const (it drops cancelled heads), but observable
  // state is unchanged — logical constness via const_cast.
  auto* self = const_cast<EventQueue*>(this);
  return self->wheels_[self->top_shard()].top().at;
}

Time EventQueue::pop_and_run(std::size_t* shard_out) {
  GS_CHECK(!empty());
  const std::size_t shard = top_shard();
  if (shard_out != nullptr) *shard_out = shard;
  Entry entry = wheels_[shard].pop();
  --live_;
  cached_top_ = kNoShard;
  if (entry.sink != nullptr) {
    entry.sink->on_event(entry.a, entry.b);
  } else {
    entry.action();
  }
  return entry.at;
}

bool EventQueue::top_is_batchable() {
  const Entry& head = wheels_[top_shard()].top();
  return head.sink != nullptr && head.sink->batchable();
}

std::size_t EventQueue::pop_batch(Time limit, std::vector<PooledBatchItem>& out,
                                  EventSink** sink_out) {
  GS_CHECK(!empty());
  out.clear();
  std::size_t shard = top_shard();
  EventSink* const sink = wheels_[shard].top().sink;
  GS_CHECK(sink != nullptr);
  const bool across_times = sink->batch_across_times();
  const Time first_at = wheels_[shard].top().at;
  for (;;) {
    const Entry entry = wheels_[shard].pop();
    out.push_back({entry.at, entry.a, entry.b});
    --live_;
    cached_top_ = kNoShard;
    if (out.size() >= kMaxBatch || empty()) break;
    // Extend only while the *global* head continues the run: same sink,
    // within the horizon, and (unless the sink allows it) the same
    // timestamp.  Stopping at the first mismatch keeps the batch a prefix
    // of the canonical pop order.
    shard = top_shard();
    const Entry& next = wheels_[shard].top();
    if (next.sink != sink || next.at > limit) break;
    if (!across_times && next.at != first_at) break;
  }
  *sink_out = sink;
  return out.size();
}

void EventQueue::clear() noexcept {
  for (TimingWheel& wheel : wheels_) wheel.clear();
  cancelled_.clear();
  live_ = 0;
  cached_top_ = kNoShard;
}

}  // namespace gs::sim
