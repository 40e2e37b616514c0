#include "sim/simulator.hpp"

#include <limits>

#include "util/check.hpp"

namespace gs::sim {

EventId Simulator::at(Time when, EventSink& sink, std::uint64_t a, std::uint64_t b) {
  GS_CHECK_GE(when, now_);
  return queue_.schedule(when, sink, a, b);
}

EventId Simulator::after(Time delay, EventSink& sink, std::uint64_t a, std::uint64_t b) {
  GS_CHECK_GE(delay, 0.0);
  return queue_.schedule(now_ + delay, sink, a, b);
}

std::size_t Simulator::drive(Time until) {
  stop_requested_ = false;
  std::size_t ran = 0;
  while (!queue_.empty() && !stop_requested_) {
    // The head is resolved once per pop: its time, its sink, then the pop.
    const QueueEntry& head = queue_.top();
    if (head.at > until) break;
    EventSink* const sink = head.sink;
    if (sink->batchable()) {
      // Drain the maximal batchable run in one dispatch.  The run is a
      // prefix of the canonical pop order; the sink processes items in
      // order using each item's own time, with the clock parked at the
      // run's end.
      const std::size_t count = queue_.pop_batch(until, batch_scratch_);
      now_ = batch_scratch_[count - 1].at;
      sink->on_batch(batch_scratch_.data(), count);
      ran += count;
      continue;
    }
    const QueueEntry entry = queue_.pop_top();
    now_ = entry.at;
    sink->on_event(entry.a, entry.b);
    ++ran;
  }
  return ran;
}

std::size_t Simulator::run_until(Time until) {
  const std::size_t ran = drive(until);
  // Advance the clock to the horizon even if no event sits exactly there,
  // so successive run_until calls observe monotone time.
  if (now_ < until && !stop_requested_) now_ = until;
  return ran;
}

std::size_t Simulator::run_all() {
  return drive(std::numeric_limits<Time>::infinity());
}

}  // namespace gs::sim
