#include "core/normal_switch.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "core/fast_switch.hpp"
#include "core/supplier_selection.hpp"

namespace gs::core {

std::vector<stream::ScheduledRequest> NormalSwitchScheduler::schedule(
    const stream::ScheduleContext& ctx, std::vector<stream::CandidateSegment>& candidates) {
  std::vector<stream::ScheduledRequest> requests;
  if (candidates.empty() || ctx.max_requests == 0) return requests;

  ScheduleScratch& scratch = ScheduleScratch::local();
  sort_by_priority(ctx, candidates, params_, scratch);

  if (ctx.s1_end == stream::kNoSegment) {
    promote_fresh_candidates(ctx, params_, scratch);
  } else {
    // Strict S1-first: a stable pass over the priority order puts every
    // old-stream candidate ahead of every new-stream one (priority order is
    // preserved within each class).
    std::vector<std::uint32_t>& order = scratch.order;
    std::vector<std::uint32_t>& s2 = scratch.o2;
    s2.clear();
    std::size_t w = 0;
    for (const std::uint32_t i : order) {
      if (candidates[i].epoch == stream::StreamEpoch::kOld) {
        order[w++] = i;
      } else {
        s2.push_back(i);
      }
    }
    std::copy(s2.begin(), s2.end(), order.begin() + static_cast<std::ptrdiff_t>(w));
  }

  // Requests are the head of the assignment list, so the greedy can stop
  // at the budget.
  greedy_assign(ctx, candidates, scratch, ctx.max_requests);
  requests.reserve(scratch.assignments.size());
  for (const Assignment& a : scratch.assignments) requests.push_back({a.id, a.supplier});
  return requests;
}

}  // namespace gs::core
