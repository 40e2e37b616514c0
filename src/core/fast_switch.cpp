#include "core/fast_switch.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "util/check.hpp"

namespace gs::core {

void sort_by_priority(const stream::ScheduleContext& ctx,
                      std::span<const stream::CandidateSegment> candidates,
                      const PriorityParams& params, ScheduleScratch& scratch) {
  const std::size_t n = candidates.size();
  GS_CHECK_LE(n, std::numeric_limits<std::uint32_t>::max());
  std::vector<double>& priorities = scratch.priorities;
  std::vector<std::uint32_t>& order = scratch.order;
  std::vector<std::uint64_t>& keys = scratch.keys;
  priorities.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    priorities[i] = segment_priority(candidates[i], ctx, params);
  }
  // Sort by quantized priority class (factor-of-two buckets), randomized
  // within a class.  Exact float ordering would make every peer pull in
  // strict id order, so same-depth peers would hold identical segment sets
  // and have nothing to trade — collapsing the mesh into a source-rooted
  // tree whose interior relays saturate.  Randomizing among near-equal
  // priorities is the standard swarming ingredient of pull-based streaming
  // (both algorithms share it; deadlines still dominate across classes).
  order.resize(n);
  std::iota(order.begin(), order.end(), 0u);
  if (ctx.rng != nullptr) ctx.rng->shuffle(order);
  // One key per shuffled position k: the class, descending, above k.  The
  // keys are unique, so sorting them reproduces a stable sort of the
  // shuffled list by class without calling priority_class per comparison.
  keys.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto rank = static_cast<std::uint64_t>(std::int64_t{INT32_MAX} -
                                                 priority_class(priorities[order[k]]));
    keys[k] = rank << 32 | k;
  }
  std::sort(keys.begin(), keys.end());
  for (std::uint64_t& key : keys) key = order[static_cast<std::uint32_t>(key)];
  for (std::size_t k = 0; k < n; ++k) order[k] = static_cast<std::uint32_t>(keys[k]);
}

void promote_fresh_candidates(const stream::ScheduleContext& ctx, const PriorityParams& params,
                              ScheduleScratch& scratch) {
  std::vector<std::uint32_t>& order = scratch.order;
  const std::size_t n = order.size();
  if (params.diversity_fraction <= 0.0 || n < 2 || ctx.max_requests == 0) return;
  const auto n_fresh = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(params.diversity_fraction * static_cast<double>(ctx.max_requests))));
  if (n_fresh >= n) return;

  // The freshest window: the 3*n_fresh highest ids on offer, by id
  // descending.  Candidates arrive in ascending id order, so these are the
  // last indices.  Sampling n_fresh of them at random (rather than taking
  // the very freshest) decorrelates the picks of neighbouring peers — the
  // whole point.
  const std::size_t window = std::min(n, n_fresh * 3);
  std::vector<std::uint64_t>& picks = scratch.keys;
  picks.resize(window);
  for (std::size_t k = 0; k < window; ++k) picks[k] = n - 1 - k;
  if (ctx.rng != nullptr) ctx.rng->shuffle(picks);
  picks.resize(n_fresh);

  // The picks go first in sampled order, the rest keep their priority
  // order: a stable pass from the back opens n_fresh slots at the front.
  std::vector<char>& chosen = scratch.taken;
  chosen.assign(n, 0);
  for (const std::uint64_t idx : picks) chosen[idx] = 1;
  std::size_t w = n;
  for (std::size_t k = n; k-- > 0;) {
    if (chosen[order[k]] == 0) order[--w] = order[k];
  }
  GS_DCHECK(w == n_fresh);
  for (std::size_t k = 0; k < n_fresh; ++k) order[k] = static_cast<std::uint32_t>(picks[k]);
}

std::vector<stream::ScheduledRequest> FastSwitchScheduler::schedule(
    const stream::ScheduleContext& ctx, std::vector<stream::CandidateSegment>& candidates) {
  return schedule_with_split(ctx, candidates, nullptr);
}

std::vector<stream::ScheduledRequest> FastSwitchScheduler::schedule_with_split(
    const stream::ScheduleContext& ctx, std::span<const stream::CandidateSegment> candidates,
    RateSplit* split_out) {
  std::vector<stream::ScheduledRequest> requests;
  if (candidates.empty() || ctx.max_requests == 0) return requests;

  ScheduleScratch& scratch = ScheduleScratch::local();
  sort_by_priority(ctx, candidates, params_, scratch);
  const std::vector<Assignment>& assignments = scratch.assignments;
  if (ctx.s1_end == stream::kNoSegment) {
    // No switch in sight: plain smart-pull by priority, so only the first
    // max_requests assignments are ever requested.
    promote_fresh_candidates(ctx, params_, scratch);
    greedy_assign(ctx, candidates, scratch, ctx.max_requests);
    requests.reserve(assignments.size());
    for (const Assignment& a : assignments) requests.push_back({a.id, a.supplier});
    return requests;
  }
  greedy_assign(ctx, candidates, scratch);
  if (assignments.empty()) return requests;

  // Step 1 output: O1 / O2 (assignment indices) in descending priority
  // order.
  std::vector<std::uint32_t>& o1 = scratch.o1;
  std::vector<std::uint32_t>& o2 = scratch.o2;
  o1.clear();
  o2.clear();
  for (std::uint32_t k = 0; k < assignments.size(); ++k) {
    (assignments[k].epoch == stream::StreamEpoch::kOld ? o1 : o2).push_back(k);
  }

  // Step 2: the capped closed-form split.  |O1|/tau and |O2|/tau are the
  // achievable outbound rates toward this node this period.
  SplitInput in;
  in.q1 = static_cast<double>(ctx.q1_remaining);
  in.q2 = static_cast<double>(ctx.q2_remaining);
  in.q = static_cast<double>(ctx.q_consecutive);
  in.p = ctx.playback_rate;
  in.inbound = std::max(ctx.inbound_rate, 1e-9);
  const double o1_rate = static_cast<double>(o1.size()) / ctx.period;
  const double o2_rate = static_cast<double>(o2.size()) / ctx.period;
  // A local, not instance state: schedule() must stay safe to call
  // concurrently from the sharded engine's plan lanes.
  const RateSplit split = solve_capped(in, o1_rate, o2_rate);
  if (split_out != nullptr) *split_out = split;

  // Round the shares to whole segments; +0.5 on i1 keeps the pair summing
  // near the budget without systematically starving either side.
  auto n1 = static_cast<std::size_t>(std::floor(split.i1 * ctx.period + 0.5));
  auto n2 = static_cast<std::size_t>(std::floor(split.i2 * ctx.period + 0.5));
  n1 = std::min(n1, o1.size());
  n2 = std::min(n2, o2.size());

  // Step 3: take the heads of both sets, *interleaved* proportionally to
  // the split (Fig. 2: "S1#1, S1#2, S2#1, S1#3, S2#2, ...").  Interleaving
  // matters beyond aesthetics: the request order is the order transfers
  // queue at suppliers, so a block of S1 requests ahead of every S2 request
  // would push the new stream to the back of every uplink.
  requests.reserve(std::min(ctx.max_requests, assignments.size()));
  std::vector<char>& taken = scratch.taken;
  taken.assign(assignments.size(), 0);
  const auto take = [&](std::uint32_t k) {
    requests.push_back({assignments[k].id, assignments[k].supplier});
    taken[k] = 1;
  };
  std::size_t i1_taken = 0;
  std::size_t i2_taken = 0;
  // Bresenham-style merge: at every step emit from the set that is most
  // behind its target share.
  while ((i1_taken < n1 || i2_taken < n2) && requests.size() < ctx.max_requests) {
    const double deficit1 =
        n1 == 0 ? -1.0 : static_cast<double>(n1 - i1_taken) / static_cast<double>(n1);
    const double deficit2 =
        n2 == 0 ? -1.0 : static_cast<double>(n2 - i2_taken) / static_cast<double>(n2);
    if (i2_taken >= n2 || (i1_taken < n1 && deficit1 >= deficit2)) {
      take(o1[i1_taken++]);
    } else {
      take(o2[i2_taken++]);
    }
  }
  // Fill: leftover budget goes to the remaining assignments by priority.
  for (std::uint32_t k = 0; k < assignments.size(); ++k) {
    if (requests.size() >= ctx.max_requests) break;
    if (taken[k] == 0) requests.push_back({assignments[k].id, assignments[k].supplier});
  }
  return requests;
}

}  // namespace gs::core
