// FastSwitchScheduler and NormalSwitchScheduler behaviour, including the
// paper's Fig. 2 example (7-per-period budget, 5 S1 + 5 S2 available), the
// candidate-order contract, equivalence with the move-based reference
// kernel, the warm-call allocation bound and concurrent use.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <numeric>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/fast_switch.hpp"
#include "core/normal_switch.hpp"
#include "util/check.hpp"

// Counts each thread's heap allocations, for the warm-call allocation test
// below; the other tests ignore the count.
namespace {
thread_local std::size_t g_allocations = 0;
}  // namespace

// GCC cannot tell that these replacements pair malloc with free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size) {
  if (void* p = operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace gs::core {
namespace {

using stream::CandidateSegment;
using stream::ScheduleContext;
using stream::ScheduledRequest;
using stream::StreamEpoch;
using stream::SupplierView;

SupplierView supplier(net::NodeId node, double rate, std::size_t position) {
  SupplierView s;
  s.node = node;
  s.send_rate = rate;
  s.buffer_position = position;
  return s;
}

/// Fig. 2 setup: the node plays id 100; S1 ends at 105 (5 undelivered:
/// 101..105); S2 starts at 106 with its first 5 segments available; the
/// inbound budget is 7 per period.  Suppliers are ample.
struct Fig2 {
  ScheduleContext ctx;
  std::vector<CandidateSegment> candidates;

  Fig2() {
    ctx.period = 1.0;
    ctx.playback_rate = 10.0;
    ctx.inbound_rate = 7.0;
    ctx.id_play = 101;
    ctx.s1_end = 105;
    ctx.s2_begin = 106;
    ctx.q_consecutive = 10;
    ctx.q_startup = 50;
    ctx.q1_remaining = 5;
    ctx.q2_remaining = 5;
    ctx.buffer_capacity = 600;
    ctx.max_requests = 7;
    for (stream::SegmentId id = 101; id <= 110; ++id) {
      CandidateSegment c;
      c.id = id;
      c.epoch = id <= 105 ? StreamEpoch::kOld : StreamEpoch::kNew;
      c.suppliers = {supplier(1, 30.0, 50), supplier(2, 25.0, 80)};
      candidates.push_back(c);
    }
  }
};

std::size_t count_epoch(const std::vector<ScheduledRequest>& requests,
                        stream::SegmentId s1_end, bool new_epoch) {
  std::size_t n = 0;
  for (const auto& r : requests) {
    if ((r.id > s1_end) == new_epoch) ++n;
  }
  return n;
}

TEST(NormalSwitch, Fig2TakesAllS1FirstThenLeftoverS2) {
  Fig2 fig;
  NormalSwitchScheduler scheduler;
  const auto requests = scheduler.schedule(fig.ctx, fig.candidates);
  ASSERT_EQ(requests.size(), 7u);
  // Paper Fig. 2 normal order: S1#1..S1#5 then S2#1, S2#2.
  for (int i = 0; i < 5; ++i) EXPECT_LE(requests[static_cast<std::size_t>(i)].id, 105);
  EXPECT_GT(requests[5].id, 105);
  EXPECT_GT(requests[6].id, 105);
  EXPECT_EQ(count_epoch(requests, 105, false), 5u);
  EXPECT_EQ(count_epoch(requests, 105, true), 2u);
}

TEST(FastSwitch, Fig2Interleaves) {
  Fig2 fig;
  FastSwitchScheduler scheduler;
  const auto requests = scheduler.schedule(fig.ctx, fig.candidates);
  ASSERT_EQ(requests.size(), 7u);
  const std::size_t s1 = count_epoch(requests, 105, false);
  const std::size_t s2 = count_epoch(requests, 105, true);
  // Both streams get a share (the paper's fast order mixes S1 and S2).
  EXPECT_GE(s1, 3u);
  EXPECT_GE(s2, 2u);
  // And the orders interleave: an S2 request appears before the last S1.
  std::size_t first_s2 = requests.size();
  std::size_t last_s1 = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].id > 105 && first_s2 == requests.size()) first_s2 = i;
    if (requests[i].id <= 105) last_s1 = i;
  }
  EXPECT_LT(first_s2, last_s1);
}

TEST(FastSwitch, SplitMatchesClosedForm) {
  Fig2 fig;
  FastSwitchScheduler scheduler;
  RateSplit split{};
  (void)scheduler.schedule_with_split(fig.ctx, fig.candidates, &split);
  const SplitInput in{5, 5, 10, 10, 7};
  EXPECT_NEAR(split.r1, optimal_r1(in), 1e-9);
}

TEST(FastSwitch, NoSwitchMeansPlainPriority) {
  Fig2 fig;
  fig.ctx.s1_end = stream::kNoSegment;
  fig.ctx.s2_begin = stream::kNoSegment;
  FastSwitchScheduler fast;
  NormalSwitchScheduler normal;
  auto candidates_copy = fig.candidates;
  const auto fast_requests = fast.schedule(fig.ctx, fig.candidates);
  const auto normal_requests = normal.schedule(fig.ctx, candidates_copy);
  // Outside a switch the two algorithms are the same smart-pull scheduler.
  ASSERT_EQ(fast_requests.size(), normal_requests.size());
  for (std::size_t i = 0; i < fast_requests.size(); ++i) {
    EXPECT_EQ(fast_requests[i].id, normal_requests[i].id);
    EXPECT_EQ(fast_requests[i].supplier, normal_requests[i].supplier);
  }
}

TEST(Strategies, RespectBudget) {
  Fig2 fig;
  fig.ctx.max_requests = 3;
  FastSwitchScheduler fast;
  NormalSwitchScheduler normal;
  auto copy = fig.candidates;
  EXPECT_LE(fast.schedule(fig.ctx, fig.candidates).size(), 3u);
  EXPECT_LE(normal.schedule(fig.ctx, copy).size(), 3u);
}

TEST(Strategies, NoDuplicateSegments) {
  Fig2 fig;
  FastSwitchScheduler fast;
  const auto requests = fast.schedule(fig.ctx, fig.candidates);
  std::set<stream::SegmentId> ids;
  for (const auto& r : requests) EXPECT_TRUE(ids.insert(r.id).second);
}

TEST(Strategies, SuppliersComeFromCandidateLists) {
  Fig2 fig;
  FastSwitchScheduler fast;
  const auto requests = fast.schedule(fig.ctx, fig.candidates);
  for (const auto& r : requests) {
    EXPECT_TRUE(r.supplier == 1u || r.supplier == 2u);
  }
}

TEST(Strategies, EmptyCandidates) {
  Fig2 fig;
  std::vector<CandidateSegment> empty;
  FastSwitchScheduler fast;
  NormalSwitchScheduler normal;
  EXPECT_TRUE(fast.schedule(fig.ctx, empty).empty());
  EXPECT_TRUE(normal.schedule(fig.ctx, empty).empty());
}

TEST(Strategies, ZeroBudget) {
  Fig2 fig;
  fig.ctx.max_requests = 0;
  FastSwitchScheduler fast;
  EXPECT_TRUE(fast.schedule(fig.ctx, fig.candidates).empty());
}

TEST(FastSwitch, FillStageUsesLeftoverBudget) {
  // With a huge budget, fast should not stop at I1+I2: remaining
  // assignments are appended so inbound capacity is never idled.
  Fig2 fig;
  fig.ctx.max_requests = 10;
  fig.ctx.inbound_rate = 7.0;  // split still computed from I=7
  FastSwitchScheduler fast;
  const auto requests = fast.schedule(fig.ctx, fig.candidates);
  EXPECT_EQ(requests.size(), 10u);
}

TEST(FastSwitch, OnlyOldStreamCandidates) {
  // All S2 already fetched: O2 empty; everything goes to S1.
  Fig2 fig;
  fig.candidates.resize(5);  // only the S1 ids remain
  fig.ctx.q2_remaining = 0;
  FastSwitchScheduler fast;
  const auto requests = fast.schedule(fig.ctx, fig.candidates);
  EXPECT_EQ(requests.size(), 5u);
  EXPECT_EQ(count_epoch(requests, 105, true), 0u);
}

TEST(FastSwitch, OnlyNewStreamCandidates) {
  Fig2 fig;
  fig.candidates.erase(fig.candidates.begin(), fig.candidates.begin() + 5);
  fig.ctx.q1_remaining = 0;
  FastSwitchScheduler fast;
  const auto requests = fast.schedule(fig.ctx, fig.candidates);
  EXPECT_EQ(requests.size(), 5u);
  EXPECT_EQ(count_epoch(requests, 105, false), 0u);
}

TEST(SortByPriority, DescendingClasses) {
  Fig2 fig;
  PriorityParams params;
  ScheduleScratch scratch;
  sort_by_priority(fig.ctx, fig.candidates, params, scratch);
  ASSERT_EQ(scratch.order.size(), fig.candidates.size());
  for (std::size_t i = 0; i < fig.candidates.size(); ++i) {
    EXPECT_EQ(scratch.priorities[i], segment_priority(fig.candidates[i], fig.ctx, params));
  }
  for (std::size_t k = 1; k < scratch.order.size(); ++k) {
    EXPECT_GE(priority_class(scratch.priorities[scratch.order[k - 1]]),
              priority_class(scratch.priorities[scratch.order[k]]));
  }
}

TEST(PromoteFresh, MovesFreshPicksToFront) {
  Fig2 fig;
  fig.ctx.s1_end = stream::kNoSegment;  // steady state only
  PriorityParams params;
  params.diversity_fraction = 0.3;
  util::Rng rng(5);
  fig.ctx.rng = &rng;
  ScheduleScratch scratch;
  sort_by_priority(fig.ctx, fig.candidates, params, scratch);
  const auto n_fresh = static_cast<std::size_t>(
      std::llround(params.diversity_fraction * static_cast<double>(fig.ctx.max_requests)));
  promote_fresh_candidates(fig.ctx, params, scratch);
  // The first n_fresh entries must come from the freshest-3*n window.
  std::vector<stream::SegmentId> ids;
  for (const std::uint32_t i : scratch.order) ids.push_back(fig.candidates[i].id);
  for (std::size_t i = 0; i < n_fresh; ++i) {
    EXPECT_GE(ids[i], 110 - static_cast<stream::SegmentId>(3 * n_fresh) + 1);
  }
  // No candidates lost.
  EXPECT_EQ(ids.size(), 10u);
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], 101 + static_cast<stream::SegmentId>(i));
  }
}

TEST(PromoteFresh, DisabledByZeroFraction) {
  Fig2 fig;
  PriorityParams params;
  params.diversity_fraction = 0.0;
  ScheduleScratch scratch;
  sort_by_priority(fig.ctx, fig.candidates, params, scratch);
  const std::vector<std::uint32_t> before = scratch.order;
  promote_fresh_candidates(fig.ctx, params, scratch);
  EXPECT_EQ(scratch.order, before);
}

// A crowded list: 40 ascending ids far past the deadline horizon with
// identical suppliers, so most share one priority class and the shuffle
// has room to permute them.
std::vector<CandidateSegment> crowded_candidates(stream::SegmentId s1_end) {
  std::vector<CandidateSegment> candidates;
  for (stream::SegmentId id = 200; id < 240; ++id) {
    CandidateSegment c;
    c.id = id;
    c.epoch = s1_end != stream::kNoSegment && id > s1_end ? StreamEpoch::kNew : StreamEpoch::kOld;
    c.suppliers = {supplier(1, 30.0, 50), supplier(2, 25.0, 80), supplier(3, 20.0, 9)};
    candidates.push_back(c);
  }
  return candidates;
}

TEST(Strategies, LeaveCandidatesInInputOrder) {
  // The SchedulerStrategy contract: candidates arrive in ascending id order
  // and come back in it, supplier lists untouched.
  for (const bool with_switch : {false, true}) {
    for (const bool fast : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "switch " << with_switch << " fast " << fast);
      Fig2 fig;
      util::Rng rng(11);
      fig.ctx.rng = &rng;
      fig.ctx.s1_end = with_switch ? 219 : stream::kNoSegment;
      fig.ctx.s2_begin = with_switch ? 220 : stream::kNoSegment;
      fig.ctx.max_requests = 12;
      fig.candidates = crowded_candidates(fig.ctx.s1_end);
      const std::vector<CandidateSegment> before = fig.candidates;
      FastSwitchScheduler fast_scheduler;
      NormalSwitchScheduler normal_scheduler;
      const auto requests = fast ? fast_scheduler.schedule(fig.ctx, fig.candidates)
                                 : normal_scheduler.schedule(fig.ctx, fig.candidates);
      EXPECT_FALSE(requests.empty());
      ASSERT_EQ(fig.candidates.size(), before.size());
      for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(fig.candidates[i].id, before[i].id) << "position " << i;
        EXPECT_EQ(fig.candidates[i].epoch, before[i].epoch);
        ASSERT_EQ(fig.candidates[i].suppliers.size(), before[i].suppliers.size());
        for (std::size_t j = 0; j < before[i].suppliers.size(); ++j) {
          EXPECT_EQ(fig.candidates[i].suppliers[j].node, before[i].suppliers[j].node);
        }
      }
    }
  }
}

// ------------------------------------------------------ reference model ----
//
// The move-based kernel the index-order one replaced, kept verbatim as the
// oracle: it moved every candidate into priority order, promoted fresh ones
// by a second sort and move, and kept tau(j) in a hash map.

namespace reference {

std::vector<double> sort_by_priority(const stream::ScheduleContext& ctx,
                                     std::vector<stream::CandidateSegment>& candidates,
                                     const PriorityParams& params) {
  std::vector<double> priorities(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    priorities[i] = segment_priority(candidates[i], ctx, params);
  }
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), 0);
  if (ctx.rng != nullptr) ctx.rng->shuffle(order);
  std::stable_sort(order.begin(), order.end(), [&priorities](std::size_t a, std::size_t b) {
    return priority_class(priorities[a]) > priority_class(priorities[b]);
  });
  std::vector<stream::CandidateSegment> sorted;
  sorted.reserve(candidates.size());
  std::vector<double> sorted_priorities;
  sorted_priorities.reserve(candidates.size());
  for (const std::size_t idx : order) {
    sorted.push_back(std::move(candidates[idx]));
    sorted_priorities.push_back(priorities[idx]);
  }
  candidates = std::move(sorted);
  return sorted_priorities;
}

void promote_fresh_candidates(const stream::ScheduleContext& ctx,
                              std::vector<stream::CandidateSegment>& candidates,
                              std::vector<double>& priorities, const PriorityParams& params) {
  if (params.diversity_fraction <= 0.0 || candidates.size() < 2 || ctx.max_requests == 0) return;
  const auto n_fresh = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(params.diversity_fraction * static_cast<double>(ctx.max_requests))));
  if (n_fresh >= candidates.size()) return;

  std::vector<std::size_t> by_id(candidates.size());
  std::iota(by_id.begin(), by_id.end(), 0);
  std::sort(by_id.begin(), by_id.end(), [&candidates](std::size_t a, std::size_t b) {
    return candidates[a].id > candidates[b].id;
  });
  const std::size_t window = std::min(candidates.size(), n_fresh * 3);
  by_id.resize(window);
  if (ctx.rng != nullptr) ctx.rng->shuffle(by_id);
  by_id.resize(std::min(n_fresh, window));

  std::vector<char> chosen(candidates.size(), 0);
  for (const std::size_t idx : by_id) chosen[idx] = 1;
  std::vector<stream::CandidateSegment> reordered;
  std::vector<double> reordered_priorities;
  reordered.reserve(candidates.size());
  reordered_priorities.reserve(candidates.size());
  for (const std::size_t idx : by_id) {
    reordered.push_back(std::move(candidates[idx]));
    reordered_priorities.push_back(priorities[idx]);
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (chosen[i]) continue;
    reordered.push_back(std::move(candidates[i]));
    reordered_priorities.push_back(priorities[i]);
  }
  candidates = std::move(reordered);
  priorities = std::move(reordered_priorities);
}

std::vector<Assignment> greedy_assign(const stream::ScheduleContext& ctx,
                                      const std::vector<stream::CandidateSegment>& candidates,
                                      const std::vector<double>& priorities) {
  GS_CHECK_EQ(candidates.size(), priorities.size());
  std::vector<Assignment> accepted;
  accepted.reserve(candidates.size());
  std::unordered_map<net::NodeId, double> queue_time;

  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const stream::CandidateSegment& c = candidates[i];
    double best_time = std::numeric_limits<double>::infinity();
    const stream::SupplierView* best = nullptr;
    for (const stream::SupplierView& s : c.suppliers) {
      if (s.send_rate <= 0.0) continue;
      const double transfer = 1.0 / s.send_rate;
      auto it = queue_time.find(s.node);
      const double queued = (it == queue_time.end() ? s.queue_delay : it->second);
      const double t = queued + transfer;
      if (t < best_time && t < ctx.period) {
        best_time = t;
        best = &s;
      }
    }
    if (best == nullptr) continue;
    queue_time[best->node] = best_time;
    Assignment a;
    a.id = c.id;
    a.supplier = best->node;
    a.epoch = c.epoch;
    a.expected_time = best_time;
    a.priority = priorities[i];
    accepted.push_back(a);
  }
  return accepted;
}

std::vector<stream::ScheduledRequest> fast_schedule(const stream::ScheduleContext& ctx,
                                                    std::vector<stream::CandidateSegment>& candidates,
                                                    const PriorityParams& params,
                                                    RateSplit* split_out) {
  std::vector<stream::ScheduledRequest> requests;
  if (candidates.empty() || ctx.max_requests == 0) return requests;

  std::vector<double> priorities = sort_by_priority(ctx, candidates, params);
  if (ctx.s1_end == stream::kNoSegment) {
    promote_fresh_candidates(ctx, candidates, priorities, params);
  }
  const std::vector<Assignment> assignments = greedy_assign(ctx, candidates, priorities);
  if (assignments.empty()) return requests;

  if (ctx.s1_end == stream::kNoSegment) {
    for (const Assignment& a : assignments) {
      if (requests.size() >= ctx.max_requests) break;
      requests.push_back({a.id, a.supplier});
    }
    return requests;
  }

  std::vector<const Assignment*> o1;
  std::vector<const Assignment*> o2;
  for (const Assignment& a : assignments) {
    (a.epoch == stream::StreamEpoch::kOld ? o1 : o2).push_back(&a);
  }

  SplitInput in;
  in.q1 = static_cast<double>(ctx.q1_remaining);
  in.q2 = static_cast<double>(ctx.q2_remaining);
  in.q = static_cast<double>(ctx.q_consecutive);
  in.p = ctx.playback_rate;
  in.inbound = std::max(ctx.inbound_rate, 1e-9);
  const double o1_rate = static_cast<double>(o1.size()) / ctx.period;
  const double o2_rate = static_cast<double>(o2.size()) / ctx.period;
  const RateSplit split = solve_capped(in, o1_rate, o2_rate);
  if (split_out != nullptr) *split_out = split;

  auto n1 = static_cast<std::size_t>(std::floor(split.i1 * ctx.period + 0.5));
  auto n2 = static_cast<std::size_t>(std::floor(split.i2 * ctx.period + 0.5));
  n1 = std::min(n1, o1.size());
  n2 = std::min(n2, o2.size());

  std::vector<const Assignment*> chosen;
  chosen.reserve(n1 + n2);
  {
    std::size_t i1_taken = 0;
    std::size_t i2_taken = 0;
    while (i1_taken < n1 || i2_taken < n2) {
      const double deficit1 =
          n1 == 0 ? -1.0
                  : static_cast<double>(n1 - i1_taken) / static_cast<double>(n1);
      const double deficit2 =
          n2 == 0 ? -1.0
                  : static_cast<double>(n2 - i2_taken) / static_cast<double>(n2);
      if (i2_taken >= n2 || (i1_taken < n1 && deficit1 >= deficit2)) {
        chosen.push_back(o1[i1_taken++]);
      } else {
        chosen.push_back(o2[i2_taken++]);
      }
    }
  }

  std::vector<char> taken(assignments.size(), 0);
  auto index_of = [&assignments](const Assignment* a) {
    return static_cast<std::size_t>(a - assignments.data());
  };
  for (const Assignment* a : chosen) {
    if (requests.size() >= ctx.max_requests) break;
    requests.push_back({a->id, a->supplier});
    taken[index_of(a)] = 1;
  }
  for (const Assignment& a : assignments) {
    if (requests.size() >= ctx.max_requests) break;
    if (taken[index_of(&a)]) continue;
    requests.push_back({a.id, a.supplier});
  }
  return requests;
}

std::vector<stream::ScheduledRequest> normal_schedule(
    const stream::ScheduleContext& ctx, std::vector<stream::CandidateSegment>& candidates,
    const PriorityParams& params) {
  std::vector<stream::ScheduledRequest> requests;
  if (candidates.empty() || ctx.max_requests == 0) return requests;

  std::vector<double> priorities = sort_by_priority(ctx, candidates, params);

  if (ctx.s1_end == stream::kNoSegment) {
    promote_fresh_candidates(ctx, candidates, priorities, params);
  } else {
    std::vector<stream::CandidateSegment> reordered;
    std::vector<double> reordered_priorities;
    reordered.reserve(candidates.size());
    reordered_priorities.reserve(candidates.size());
    for (int pass = 0; pass < 2; ++pass) {
      const auto wanted = pass == 0 ? stream::StreamEpoch::kOld : stream::StreamEpoch::kNew;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (candidates[i].epoch != wanted) continue;
        reordered.push_back(std::move(candidates[i]));
        reordered_priorities.push_back(priorities[i]);
      }
    }
    candidates = std::move(reordered);
    priorities = std::move(reordered_priorities);
  }

  const std::vector<Assignment> assignments = greedy_assign(ctx, candidates, priorities);
  for (const Assignment& a : assignments) {
    if (requests.size() >= ctx.max_requests) break;
    requests.push_back({a.id, a.supplier});
  }
  return requests;
}

}  // namespace reference

/// One seeded scheduling input: ascending unique ids, 0-20 suppliers per
/// candidate drawn from a neighbour set of 1-20 nodes (some with zero
/// rate; an empty list gives priority 0), and optionally a crowded layout
/// where every candidate shares suppliers and rarity so classes are large.
struct RandomInput {
  ScheduleContext ctx;
  std::vector<CandidateSegment> candidates;
  std::uint64_t rng_seed = 0;
  bool use_rng = true;
};

RandomInput random_input(std::size_t n, bool with_switch, std::uint64_t seed) {
  util::Rng draw(seed);
  RandomInput in;
  ScheduleContext& ctx = in.ctx;
  ctx.period = 1.0;
  ctx.playback_rate = 10.0;
  ctx.inbound_rate = draw.uniform(1.0, 40.0);
  ctx.q_consecutive = 10;
  ctx.q_startup = 50;
  ctx.buffer_capacity = 600;
  ctx.max_requests = static_cast<std::size_t>(draw.uniform_int(1, 40));
  const bool crowded = draw.bernoulli(0.3);
  const std::size_t degree = static_cast<std::size_t>(draw.uniform_int(1, 20));
  struct Node {
    double rate;
    double queue;
  };
  std::vector<Node> nodes(degree);
  for (Node& node : nodes) {
    node.rate = draw.bernoulli(0.15) ? 0.0 : draw.uniform(0.5, 40.0);
    node.queue = draw.bernoulli(0.5) ? 0.0 : draw.uniform(0.0, 0.9);
    if (crowded) node = {20.0, 0.0};
  }
  stream::SegmentId id = 1000 + draw.uniform_int(0, 50);
  ctx.id_play = id - draw.uniform_int(0, 5);
  const stream::SegmentId first = id;
  for (std::size_t i = 0; i < n; ++i) {
    CandidateSegment c;
    c.id = id;
    id += draw.bernoulli(0.7) ? 1 : draw.uniform_int(2, 4);
    if (!draw.bernoulli(0.05)) {
      const auto count = static_cast<std::size_t>(draw.uniform_int(1, 20));
      for (std::size_t j = 0; j < degree && c.suppliers.size() < count; ++j) {
        if (!draw.bernoulli(0.6)) continue;
        SupplierView s;
        s.node = static_cast<net::NodeId>(10 + 3 * j);
        s.send_rate = nodes[j].rate;
        s.queue_delay = nodes[j].queue;
        s.buffer_position =
            crowded ? 300 : static_cast<std::size_t>(draw.uniform_int(1, 600));
        c.suppliers.push_back(s);
      }
    }
    in.candidates.push_back(c);
  }
  if (crowded) ctx.id_play = first - 400;  // far deadlines: rarity-led, one class
  if (with_switch) {
    ctx.s1_end = first + draw.uniform_int(-2, static_cast<std::int64_t>(id - first));
    ctx.s2_begin = ctx.s1_end + 1;
    ctx.q1_remaining = static_cast<std::size_t>(draw.uniform_int(0, 200));
    ctx.q2_remaining = static_cast<std::size_t>(draw.uniform_int(0, 60));
    for (CandidateSegment& c : in.candidates) {
      c.epoch = c.id > ctx.s1_end ? StreamEpoch::kNew : StreamEpoch::kOld;
    }
  }
  in.rng_seed = draw();
  in.use_rng = !draw.bernoulli(0.1);
  return in;
}

bool same_requests(const std::vector<ScheduledRequest>& a,
                   const std::vector<ScheduledRequest>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].supplier != b[i].supplier) return false;
  }
  return true;
}

constexpr std::size_t kReferenceSizes[] = {1, 2, 33, 104, 600};
constexpr double kDiversity[] = {0.0, 0.25, 1.0};

TEST(KernelMatchesReference, Schedulers) {
  std::size_t splits = 0;
  for (const std::size_t n : kReferenceSizes) {
    for (const bool with_switch : {false, true}) {
      for (const double diversity : kDiversity) {
        for (std::uint64_t seed = 1; seed <= 12; ++seed) {
          const RandomInput in = random_input(n, with_switch, seed * 7919 + n);
          PriorityParams params;
          params.diversity_fraction = diversity;
          params.traditional_rarity = seed % 4 == 0;
          SCOPED_TRACE(::testing::Message() << "n " << n << " switch " << with_switch
                                            << " diversity " << diversity << " seed " << seed);
          for (const bool fast : {false, true}) {
            util::Rng kernel_rng(in.rng_seed);
            util::Rng reference_rng(in.rng_seed);
            ScheduleContext kernel_ctx = in.ctx;
            ScheduleContext reference_ctx = in.ctx;
            kernel_ctx.rng = in.use_rng ? &kernel_rng : nullptr;
            reference_ctx.rng = in.use_rng ? &reference_rng : nullptr;
            std::vector<CandidateSegment> kernel_candidates = in.candidates;
            std::vector<CandidateSegment> reference_candidates = in.candidates;
            std::vector<ScheduledRequest> got;
            std::vector<ScheduledRequest> want;
            RateSplit got_split{-1.0, -1.0, -1.0, -1.0, -1};
            RateSplit want_split = got_split;
            if (fast) {
              FastSwitchScheduler scheduler(params);
              got = scheduler.schedule_with_split(kernel_ctx, kernel_candidates, &got_split);
              want = reference::fast_schedule(reference_ctx, reference_candidates, params,
                                              &want_split);
            } else {
              NormalSwitchScheduler scheduler(params);
              got = scheduler.schedule(kernel_ctx, kernel_candidates);
              want = reference::normal_schedule(reference_ctx, reference_candidates, params);
            }
            EXPECT_TRUE(same_requests(got, want)) << (fast ? "fast" : "normal");
            EXPECT_EQ(got_split.i1, want_split.i1);
            EXPECT_EQ(got_split.i2, want_split.i2);
            EXPECT_EQ(got_split.r1, want_split.r1);
            EXPECT_EQ(got_split.r2, want_split.r2);
            EXPECT_EQ(got_split.case_id, want_split.case_id);
            if (got_split.case_id != -1) ++splits;
            for (int draw = 0; draw < 3; ++draw) EXPECT_EQ(kernel_rng(), reference_rng());
          }
        }
      }
    }
  }
  EXPECT_GT(splits, 100u) << "the split path must be exercised";
}

TEST(KernelMatchesReference, Helpers) {
  // Stage by stage: the rank, the promotion and the greedy (with and
  // without a limit) give the reference's order, priorities and
  // assignments.
  for (const std::size_t n : kReferenceSizes) {
    for (const double diversity : kDiversity) {
      for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const RandomInput in = random_input(n, /*with_switch=*/false, seed * 104729 + n);
        SCOPED_TRACE(::testing::Message() << "n " << n << " diversity " << diversity
                                          << " seed " << seed);
        PriorityParams params;
        params.diversity_fraction = diversity;
        util::Rng kernel_rng(in.rng_seed);
        util::Rng reference_rng(in.rng_seed);
        ScheduleContext kernel_ctx = in.ctx;
        ScheduleContext reference_ctx = in.ctx;
        kernel_ctx.rng = &kernel_rng;
        reference_ctx.rng = &reference_rng;
        std::vector<CandidateSegment> sorted = in.candidates;
        ScheduleScratch scratch;

        std::vector<double> priorities = reference::sort_by_priority(reference_ctx, sorted, params);
        sort_by_priority(kernel_ctx, in.candidates, params, scratch);
        const auto expect_order = [&](const char* stage) {
          ASSERT_EQ(scratch.order.size(), sorted.size()) << stage;
          for (std::size_t k = 0; k < sorted.size(); ++k) {
            const std::uint32_t i = scratch.order[k];
            EXPECT_EQ(in.candidates[i].id, sorted[k].id) << stage << " position " << k;
            EXPECT_EQ(scratch.priorities[i], priorities[k]) << stage << " position " << k;
          }
        };
        expect_order("rank");

        reference::promote_fresh_candidates(reference_ctx, sorted, priorities, params);
        promote_fresh_candidates(kernel_ctx, params, scratch);
        expect_order("promote");
        EXPECT_EQ(kernel_rng(), reference_rng());

        const std::vector<Assignment> want = reference::greedy_assign(in.ctx, sorted, priorities);
        for (const std::size_t limit : {std::numeric_limits<std::size_t>::max(),
                                        in.ctx.max_requests, std::size_t{1}}) {
          greedy_assign(in.ctx, in.candidates, scratch, limit);
          ASSERT_EQ(scratch.assignments.size(), std::min(limit, want.size()));
          for (std::size_t k = 0; k < scratch.assignments.size(); ++k) {
            const Assignment& got = scratch.assignments[k];
            EXPECT_EQ(got.id, want[k].id);
            EXPECT_EQ(got.supplier, want[k].supplier);
            EXPECT_EQ(got.epoch, want[k].epoch);
            EXPECT_EQ(got.expected_time, want[k].expected_time);
            EXPECT_EQ(got.priority, want[k].priority);
          }
        }
      }
    }
  }
}

TEST(Strategies, WarmCallAllocatesOnlyTheRequests) {
  // Once this thread's scratch has seen a call of the same shape, the only
  // heap allocation left is the returned request vector.
  FastSwitchScheduler fast;
  NormalSwitchScheduler normal;
  for (const bool with_switch : {false, true}) {
    for (const bool use_fast : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "switch " << with_switch << " fast " << use_fast);
      const RandomInput in = random_input(104, with_switch, 77);
      std::vector<CandidateSegment> candidates = in.candidates;
      util::Rng rng(in.rng_seed);
      ScheduleContext ctx = in.ctx;
      ctx.rng = &rng;
      const auto call = [&] {
        rng = util::Rng(in.rng_seed);
        return use_fast ? fast.schedule(ctx, candidates) : normal.schedule(ctx, candidates);
      };
      (void)call();
      const std::size_t before = g_allocations;
      const std::vector<ScheduledRequest> requests = call();
      const std::size_t allocations = g_allocations - before;
      ASSERT_FALSE(requests.empty());
      EXPECT_EQ(allocations, 1u);
    }
  }
}

// ---------------------------------------------------------- concurrency ----

TEST(SchedulerConcurrency, ThreadsMatchSequential) {
  // One instance of each strategy shared by four threads, as the plan lanes
  // share them: every thread's results equal the sequential ones.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kInputsPerThread = 24;
  FastSwitchScheduler fast;
  NormalSwitchScheduler normal;
  const auto run = [&fast, &normal](std::size_t input) {
    const RandomInput in = random_input(kReferenceSizes[input % 5], input % 2 == 1, 5000 + input);
    std::vector<std::vector<ScheduledRequest>> out;
    for (const bool use_fast : {false, true}) {
      util::Rng rng(in.rng_seed);
      ScheduleContext ctx = in.ctx;
      ctx.rng = &rng;
      std::vector<CandidateSegment> candidates = in.candidates;
      out.push_back(use_fast ? fast.schedule(ctx, candidates) : normal.schedule(ctx, candidates));
    }
    return out;
  };
  std::vector<std::vector<std::vector<ScheduledRequest>>> sequential;
  for (std::size_t input = 0; input < kThreads * kInputsPerThread; ++input) {
    sequential.push_back(run(input));
  }
  std::vector<std::vector<std::vector<ScheduledRequest>>> concurrent(sequential.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&concurrent, &run, t] {
      for (std::size_t k = 0; k < kInputsPerThread; ++k) {
        const std::size_t input = k * kThreads + t;
        concurrent[input] = run(input);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t input = 0; input < sequential.size(); ++input) {
    ASSERT_EQ(concurrent[input].size(), 2u);
    EXPECT_TRUE(same_requests(concurrent[input][0], sequential[input][0])) << "normal " << input;
    EXPECT_TRUE(same_requests(concurrent[input][1], sequential[input][1])) << "fast " << input;
  }
}

}  // namespace
}  // namespace gs::core
