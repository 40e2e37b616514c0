#include "stream/playback.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gs::stream {

Playback::Playback(double rate) : rate_(rate), interval_(1.0 / rate) {
  GS_CHECK_GT(rate, 0.0);
}

void Playback::start(SegmentId first, double now) {
  GS_CHECK(!started_);
  GS_CHECK_GE(first, 0);
  started_ = true;
  cursor_ = first;
  next_due_ = now;
}

void Playback::set_gate(SegmentId id) {
  GS_CHECK_EQ(gate_, kNoSegment);
  GS_CHECK(!started_ || id >= cursor_);
  gate_ = id;
}

void Playback::release_gate(double now) {
  GS_CHECK_NE(gate_, kNoSegment);
  gate_ = kNoSegment;
  // The freshly ungated segment plays no earlier than the release instant.
  if (started_ && next_due_ < now) next_due_ = now;
}

void Playback::notify_arrival(SegmentId id, double now) {
  if (!started_ || id < cursor_) return;
  if (id == cursor_) {
    // A fresh arrival of the cursor segment means it was absent at its due
    // time (duplicates never reach here): the stream stalled from next_due_
    // until now and resumes at the arrival instant, never retroactively.
    if (next_due_ < now) {
      stall_time_ += now - next_due_;
      next_due_ = now;
    }
    stalled_ = false;
    return;
  }
  // Ahead of the cursor: remember the arrival so the catch-up loop never
  // back-dates this segment's play time.
  if (id >= cursor_ + kArrivalWindow) return;
  if (ring_ == nullptr) ring_ = std::make_unique<ArrivalRing>();
  (*ring_)[slot_of(id)] = ArrivalSlot{id, now};
}

std::size_t Playback::advance(double now, const std::function<bool(SegmentId)>& has,
                              const std::function<void(SegmentId, double)>& on_play) {
  if (!started_) return 0;
  std::size_t plays = 0;
  while (next_due_ <= now) {
    if (gate_ != kNoSegment && cursor_ >= gate_) break;
    if (!has(cursor_)) {
      stalled_ = true;
      break;
    }
    stalled_ = false;
    // Clamp to the recorded arrival: segments that turned up after their
    // theoretical due time stalled the stream until they arrived.  Slots
    // the cursor passed need no cleanup: they fail the id check and get
    // overwritten in place.
    if (ring_ != nullptr) {
      ArrivalSlot& slot = (*ring_)[slot_of(cursor_)];
      if (slot.id == cursor_) {
        if (slot.time > next_due_) {
          stall_time_ += slot.time - next_due_;
          next_due_ = slot.time;
        }
        slot.id = kNoSegment;
        if (next_due_ > now) break;  // resumed beyond the current horizon
      }
    }
    on_play(cursor_, next_due_);
    ++plays;
    ++cursor_;
    next_due_ += interval_;
  }
  return plays;
}

std::size_t Playback::memory_bytes() const noexcept {
  return ring_ != nullptr ? sizeof(ArrivalRing) : 0;
}

}  // namespace gs::stream
