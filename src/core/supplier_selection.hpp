// Greedy supplier selection — Step 1 of the paper's Algorithm 1.
//
// Candidates are visited in descending priority order.  For each, pick the
// supplier with the earliest expected receive time (its accumulated local
// queueing time tau(j) plus the transfer time 1/R(j)); accept only if that
// time stays within the scheduling period.  The chosen supplier's queueing
// time is advanced, so later (lower-priority) segments see the backlog.
// The general assignment problem is NP-hard (parallel machine scheduling);
// this greedy keeps high-priority segments earliest, as in the paper.
//
// The Algorithm 1 kernel (this greedy, core::sort_by_priority and
// core::promote_fresh_candidates) never moves or reorders the caller's
// candidates: it works over an index permutation of them held in a
// ScheduleScratch.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "stream/scheduler.hpp"

namespace gs::core {

/// One accepted assignment, in scheduling (priority) order.
struct Assignment {
  stream::SegmentId id = stream::kNoSegment;
  net::NodeId supplier = 0;
  stream::StreamEpoch epoch = stream::StreamEpoch::kOld;
  /// Expected receive time within the period (tau(j) + 1/R(j)).
  double expected_time = 0.0;
  /// Priority the caller sorted by (carried through for later stages).
  double priority = 0.0;
};

/// tau(j) of a supplier that already holds an assignment this period.
struct SupplierClock {
  net::NodeId node = 0;
  double time = 0.0;
};

/// The buffers of one Algorithm 1 call.  Each thread reuses one instance
/// (local()), so a warm call allocates nothing here, while the strategies
/// stay stateless and the plan lanes may call them concurrently.  A call
/// owns its thread's instance until it returns, so scheduling calls must
/// not nest on one thread.
struct ScheduleScratch {
  /// eq. 9 priority of candidate i (indexed like the candidate list).
  std::vector<double> priorities;
  /// Candidate indices in scheduling order.
  std::vector<std::uint32_t> order;
  /// greedy_assign's output, in scheduling order.
  std::vector<Assignment> assignments;
  /// Rank sort keys; afterwards the fresh window of promote_fresh_candidates.
  std::vector<std::uint64_t> keys;
  /// tau(j) of the suppliers assigned so far (at most one per neighbour).
  std::vector<SupplierClock> clocks;
  /// Old- and new-stream entries: assignment indices in the fast scheduler,
  /// o2 the new-stream candidate tail of the normal scheduler's partition.
  std::vector<std::uint32_t> o1;
  std::vector<std::uint32_t> o2;
  /// Per-candidate or per-assignment marks.
  std::vector<char> taken;

  /// This thread's instance.
  [[nodiscard]] static ScheduleScratch& local();
};

/// Runs the greedy over candidates[scratch.order[0]], candidates[
/// scratch.order[1]], ... (descending priority, scratch.priorities[i] the
/// priority of candidates[i]) into scratch.assignments, stopping once
/// `limit` assignments are accepted.  Segments whose best supplier cannot
/// deliver within `ctx.period` are skipped.  Initial per-supplier queueing
/// times are zero (the paper's initialisation) plus any
/// SupplierView::queue_delay.
void greedy_assign(const stream::ScheduleContext& ctx,
                   std::span<const stream::CandidateSegment> candidates, ScheduleScratch& scratch,
                   std::size_t limit = std::numeric_limits<std::size_t>::max());

}  // namespace gs::core
