// The paper's contribution: the fast source switch algorithm (Algorithm 1).
//
// Per scheduling period:
//   1. compute each candidate's priority (eqs. 6-9) and rank descending;
//   2. greedily assign suppliers (earliest expected receive time within the
//      period), building the ordered sets O1 (old stream) and O2 (new
//      stream prefix);
//   3. split the inbound rate by the closed form (eq. 4) capped by
//      O1 = |O1|, O2 = |O2| via the four §4 cases;
//   4. request the first I1*tau segments of O1 and the first I2*tau of O2.
// A final fill stage spends any leftover inbound budget on the remaining
// assignments in priority order (never letting capacity idle, mirroring
// the normal algorithm's leftover rule).
//
// Outside a known switch the strategy degenerates to pure priority pulling,
// which is the standard smart-pull gossip scheduler.
#pragma once

#include <span>

#include "core/priority.hpp"
#include "core/rate_solver.hpp"
#include "core/supplier_selection.hpp"
#include "stream/scheduler.hpp"

namespace gs::core {

class FastSwitchScheduler final : public stream::SchedulerStrategy {
 public:
  explicit FastSwitchScheduler(PriorityParams params = {}) : params_(params) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "fast"; }

  /// Stateless per call — one instance is shared by every peer, and the
  /// sharded engine core invokes it concurrently from plan lanes, so the
  /// strategy must not touch instance state besides the immutable params
  /// (its working buffers are the calling thread's ScheduleScratch).
  /// Leaves `candidates` untouched.
  [[nodiscard]] std::vector<stream::ScheduledRequest> schedule(
      const stream::ScheduleContext& ctx,
      std::vector<stream::CandidateSegment>& candidates) override;

  /// schedule() variant reporting the closed-form split it chose when a
  /// switch was active (diagnostics / tests; `split_out` may be null and is
  /// untouched when no split happened).
  [[nodiscard]] std::vector<stream::ScheduledRequest> schedule_with_split(
      const stream::ScheduleContext& ctx, std::span<const stream::CandidateSegment> candidates,
      RateSplit* split_out);

 private:
  PriorityParams params_;
};

/// Shared helper, step one of the kernel: fills scratch.priorities with each
/// candidate's priority and scratch.order with the candidate indices sorted
/// by descending priority class, randomized within a class by ctx.rng.
/// Exposed for the normal scheduler and for tests.
void sort_by_priority(const stream::ScheduleContext& ctx,
                      std::span<const stream::CandidateSegment> candidates,
                      const PriorityParams& params, ScheduleScratch& scratch);

/// Shared helper: moves a randomized sample of the freshest candidates to
/// the front of scratch.order so they claim supplier capacity first.  The
/// candidates must be in ascending id order (the SchedulerStrategy
/// contract).  This is the diversity reservation described in
/// PriorityParams; call only when no switch split is active.
void promote_fresh_candidates(const stream::ScheduleContext& ctx, const PriorityParams& params,
                              ScheduleScratch& scratch);

}  // namespace gs::core
