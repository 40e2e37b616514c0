#include "core/supplier_selection.hpp"

#include "util/check.hpp"

namespace gs::core {

ScheduleScratch& ScheduleScratch::local() {
  thread_local ScheduleScratch scratch;
  return scratch;
}

void greedy_assign(const stream::ScheduleContext& ctx,
                   std::span<const stream::CandidateSegment> candidates, ScheduleScratch& scratch,
                   std::size_t limit) {
  GS_CHECK_EQ(candidates.size(), scratch.priorities.size());
  std::vector<Assignment>& accepted = scratch.assignments;
  // tau(j): local queueing bookkeeping of the suppliers assigned so far.  A
  // supplier not in the list still queues from its SupplierView's
  // queue_delay; there are at most `degree` entries, so a linear lookup
  // beats hashing.
  std::vector<SupplierClock>& clocks = scratch.clocks;
  accepted.clear();
  clocks.clear();

  for (const std::uint32_t i : scratch.order) {
    if (accepted.size() >= limit) break;
    const stream::CandidateSegment& c = candidates[i];
    double best_time = std::numeric_limits<double>::infinity();
    const stream::SupplierView* best = nullptr;
    std::size_t best_slot = 0;
    for (const stream::SupplierView& s : c.suppliers) {
      if (s.send_rate <= 0.0) continue;
      const double transfer = 1.0 / s.send_rate;
      std::size_t slot = 0;
      while (slot < clocks.size() && clocks[slot].node != s.node) ++slot;
      const double queued = (slot == clocks.size() ? s.queue_delay : clocks[slot].time);
      const double t = queued + transfer;
      // Paper line 13: accept only suppliers delivering within the period.
      if (t < best_time && t < ctx.period) {
        best_time = t;
        best = &s;
        best_slot = slot;
      }
    }
    if (best == nullptr) continue;
    // Paper line 18.
    if (best_slot == clocks.size()) {
      clocks.push_back({best->node, best_time});
    } else {
      clocks[best_slot].time = best_time;
    }
    Assignment a;
    a.id = c.id;
    a.supplier = best->node;
    a.epoch = c.epoch;
    a.expected_time = best_time;
    a.priority = scratch.priorities[i];
    accepted.push_back(a);
  }
}

}  // namespace gs::core
