#include "sim/simulator.hpp"

#include <limits>

#include "util/check.hpp"

namespace gs::sim {

void Simulator::at(Time when, EventSink& sink, std::uint64_t a, std::uint64_t b) {
  GS_CHECK_GE(when, now_);
  wheel_.push({when, next_id_++, &sink, a, b});
}

void Simulator::after(Time delay, EventSink& sink, std::uint64_t a, std::uint64_t b) {
  GS_CHECK_GE(delay, 0.0);
  wheel_.push({now_ + delay, next_id_++, &sink, a, b});
}

std::size_t Simulator::drive(Time until) {
  stop_requested_ = false;
  std::size_t ran = 0;
  while (!wheel_.empty() && !stop_requested_) {
    const QueueEntry& head = wheel_.top();
    if (head.at > until) break;
    if (head.sink != batch_sink_) {
      const QueueEntry entry = wheel_.pop();
      now_ = entry.at;
      entry.sink->on_event(entry.a, entry.b);
      ++ran;
      continue;
    }
    // Pop the maximal run of the batch sink's consecutive heads within the
    // horizon.  Stopping at the first foreign or late head keeps the run a
    // prefix of the canonical pop order (the sink's events schedule
    // nothing), so dispatching it in order preserves every determinism
    // guarantee.
    batch_scratch_.clear();
    for (;;) {
      const QueueEntry entry = wheel_.pop();
      batch_scratch_.push_back({entry.at, entry.a, entry.b});
      if (batch_scratch_.size() == kMaxBatch || wheel_.empty()) break;
      const QueueEntry& next = wheel_.top();
      if (next.sink != batch_sink_ || next.at > until) break;
    }
    now_ = batch_scratch_.back().at;
    batch_sink_->on_batch(batch_scratch_.data(), batch_scratch_.size());
    ran += batch_scratch_.size();
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
