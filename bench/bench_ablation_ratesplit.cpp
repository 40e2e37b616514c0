// Ablation A4: the value of the closed-form split (eq. 4 + the four capped
// cases) against naive fixed splits, holding everything else equal.
//
// Implemented as alternative SchedulerStrategy variants that bypass the
// solver: "half" always splits the inbound budget 50:50; "s2first" gives
// the new stream absolute priority (the mirror image of the normal
// algorithm).
#include <memory>

#include "bench_common.hpp"
#include "core/fast_switch.hpp"
#include "core/normal_switch.hpp"
#include "core/supplier_selection.hpp"
#include "experiments/scenario.hpp"

namespace {

using gs::core::Assignment;
using gs::core::greedy_assign;
using gs::core::PriorityParams;
using gs::core::promote_fresh_candidates;
using gs::core::ScheduleScratch;
using gs::core::sort_by_priority;
using gs::stream::CandidateSegment;
using gs::stream::ScheduleContext;
using gs::stream::ScheduledRequest;
using gs::stream::StreamEpoch;

/// Fixed-ratio splitter: i2 = ratio * I during a switch (capped by O2).
class FixedSplitScheduler final : public gs::stream::SchedulerStrategy {
 public:
  FixedSplitScheduler(std::string name, double s2_share) : name_(std::move(name)), share_(s2_share) {}

  [[nodiscard]] std::string_view name() const noexcept override { return name_; }

  [[nodiscard]] std::vector<ScheduledRequest> schedule(
      const ScheduleContext& ctx, std::vector<CandidateSegment>& candidates) override {
    std::vector<ScheduledRequest> requests;
    if (candidates.empty() || ctx.max_requests == 0) return requests;
    ScheduleScratch& scratch = ScheduleScratch::local();
    sort_by_priority(ctx, candidates, params_, scratch);
    const std::vector<Assignment>& assignments = scratch.assignments;
    if (ctx.s1_end == gs::stream::kNoSegment) {
      promote_fresh_candidates(ctx, params_, scratch);
      greedy_assign(ctx, candidates, scratch, ctx.max_requests);
      for (const Assignment& a : assignments) requests.push_back({a.id, a.supplier});
      return requests;
    }
    greedy_assign(ctx, candidates, scratch);
    std::vector<const Assignment*> o1;
    std::vector<const Assignment*> o2;
    for (const Assignment& a : assignments) {
      (a.epoch == StreamEpoch::kOld ? o1 : o2).push_back(&a);
    }
    auto n2 = std::min<std::size_t>(
        o2.size(), static_cast<std::size_t>(share_ * static_cast<double>(ctx.max_requests)));
    auto n1 = std::min(o1.size(), ctx.max_requests - n2);
    std::size_t i1 = 0;
    std::size_t i2 = 0;
    while ((i1 < n1 || i2 < n2) && requests.size() < ctx.max_requests) {
      if (i2 * n1 <= i1 * n2 && i2 < n2) {
        requests.push_back({o2[i2]->id, o2[i2]->supplier});
        ++i2;
      } else if (i1 < n1) {
        requests.push_back({o1[i1]->id, o1[i1]->supplier});
        ++i1;
      } else {
        break;
      }
    }
    // Leftover budget: remaining assignments by priority.
    for (const Assignment& a : assignments) {
      if (requests.size() >= ctx.max_requests) break;
      bool taken = false;
      for (const auto& r : requests) {
        if (r.id == a.id) {
          taken = true;
          break;
        }
      }
      if (!taken) requests.push_back({a.id, a.supplier});
    }
    return requests;
  }

 private:
  std::string name_;
  double share_;
  PriorityParams params_;
};

struct PolicyOutcome {
  double prepared = 0.0;  ///< T2: avg preparing time of S2
  double finish = 0.0;    ///< T1': avg finishing time of S1
  double start = 0.0;     ///< actual S2 playback start = max of the two gates
};

PolicyOutcome run_with(const gs::exp::Config& config,
                       std::shared_ptr<gs::stream::SchedulerStrategy> s) {
  const auto metrics = gs::exp::make_engine(config, std::move(s))->run();
  PolicyOutcome out;
  out.prepared = metrics.front().avg_prepared_time();
  out.finish = metrics.front().avg_finish_time();
  out.start = metrics.front().avg_s2_start_time();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  gs::exp::Config base = gs::exp::Config::paper_static(1000, gs::exp::AlgorithmKind::kFast);
  gs::benchtool::BenchOptions options;
  if (!gs::benchtool::parse_bench_flags(argc, argv, options, base, "1000")) return 0;
  const std::size_t nodes = options.sizes.empty() ? 1000 : options.sizes.front();

  std::printf("=== A4: rate-split policy ablation (%zu nodes) ===\n", nodes);
  std::printf("%-26s %14s %14s %16s\n", "policy", "T2 (prepare)", "T1' (finish)",
              "S2 play start");
  struct Named {
    const char* label;
    std::shared_ptr<gs::stream::SchedulerStrategy> (*make)();
  };
  const Named policies[] = {
      {"closed form (eq.4, paper)",
       [] { return std::shared_ptr<gs::stream::SchedulerStrategy>(
                std::make_shared<gs::core::FastSwitchScheduler>()); }},
      {"fixed 50:50 split",
       [] { return std::shared_ptr<gs::stream::SchedulerStrategy>(
                std::make_shared<FixedSplitScheduler>("half", 0.5)); }},
      {"S2-first (starves S1)",
       [] { return std::shared_ptr<gs::stream::SchedulerStrategy>(
                std::make_shared<FixedSplitScheduler>("s2first", 1.0)); }},
      {"normal (S1-first)",
       [] { return std::shared_ptr<gs::stream::SchedulerStrategy>(
                std::make_shared<gs::core::NormalSwitchScheduler>()); }},
  };
  for (const Named& policy : policies) {
    PolicyOutcome sum;
    for (std::size_t trial = 0; trial < options.trials; ++trial) {
      gs::exp::Config config = gs::benchtool::trial_config(base, nodes, trial);
      const PolicyOutcome out = run_with(config, policy.make());
      sum.prepared += out.prepared;
      sum.finish += out.finish;
      sum.start += out.start;
    }
    const auto n = static_cast<double>(options.trials);
    std::printf("%-26s %12.2f s %12.2f s %14.2f s\n", policy.label, sum.prepared / n,
                sum.finish / n, sum.start / n);
  }
  std::printf("\nT2 alone rewards starving S1 (S2-first); the user-visible metric is the\n"
              "S2 playback start, where the closed form balances both gates without\n"
              "hand-tuning, and the finish column shows what S2-first sacrifices.\n");
  return 0;
}
