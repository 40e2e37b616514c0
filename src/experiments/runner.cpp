#include "experiments/runner.hpp"

#include <chrono>

#include "experiments/scenario.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace gs::exp {

const stream::SwitchMetrics& RunResult::primary() const {
  GS_CHECK(!switches.empty());
  return switches.front();
}

RunResult run_once(const Config& config) {
  const auto start = std::chrono::steady_clock::now();
  auto engine = make_engine(config);
  RunResult result;
  result.config = config;
  result.switches = engine->run();
  result.stats = engine->stats();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

double ComparisonPoint::reduction() const {
  return stream::reduction_ratio(normal_switch_time, fast_switch_time);
}

ComparisonPoint compare_at_size(const Config& base, std::size_t node_count, std::size_t trials) {
  GS_CHECK_GE(trials, 1u);
  struct TrialOutcome {
    double fast_switch = 0.0, normal_switch = 0.0;
    double fast_finish = 0.0, normal_finish = 0.0;
    double fast_overhead = 0.0, normal_overhead = 0.0;
  };
  std::vector<TrialOutcome> outcomes(trials);

  // thread_count() simulations at once, the caller's among them.
  util::ThreadPool& pool = util::global_pool();
  pool.run_batch(trials * 2, pool.thread_count(), [&](std::size_t task) {
    const std::size_t trial = task / 2;
    const bool fast = (task % 2) == 0;
    Config config = base;
    config.node_count = node_count;
    config.algorithm = fast ? AlgorithmKind::kFast : AlgorithmKind::kNormal;
    // Same scenario seed for both algorithms of a trial: paired comparison.
    config.seed = util::splitmix64(base.seed ^ util::splitmix64(trial + 1));
    config.engine.seed = config.seed;
    const RunResult result = run_once(config);
    const stream::SwitchMetrics& m = result.primary();
    TrialOutcome& out = outcomes[trial];
    if (fast) {
      out.fast_switch = m.avg_prepared_time();
      out.fast_finish = m.avg_finish_time();
      out.fast_overhead = m.overhead_ratio;
    } else {
      out.normal_switch = m.avg_prepared_time();
      out.normal_finish = m.avg_finish_time();
      out.normal_overhead = m.overhead_ratio;
    }
  });

  ComparisonPoint point;
  point.node_count = node_count;
  point.trials = trials;
  std::vector<double> fast_switches;
  std::vector<double> normal_switches;
  util::RunningStats fs;
  util::RunningStats ns;
  util::RunningStats ff;
  util::RunningStats nf;
  util::RunningStats fo;
  util::RunningStats no;
  for (const TrialOutcome& out : outcomes) {
    fs.add(out.fast_switch);
    ns.add(out.normal_switch);
    ff.add(out.fast_finish);
    nf.add(out.normal_finish);
    fo.add(out.fast_overhead);
    no.add(out.normal_overhead);
    fast_switches.push_back(out.fast_switch);
    normal_switches.push_back(out.normal_switch);
  }
  point.fast_switch_time = fs.mean();
  point.normal_switch_time = ns.mean();
  point.fast_finish_time = ff.mean();
  point.normal_finish_time = nf.mean();
  point.fast_overhead = fo.mean();
  point.normal_overhead = no.mean();
  point.fast_switch_ci = util::ci95_halfwidth(fast_switches);
  point.normal_switch_ci = util::ci95_halfwidth(normal_switches);
  return point;
}

std::vector<ComparisonPoint> sweep_sizes(const Config& base, const std::vector<std::size_t>& sizes,
                                         std::size_t trials) {
  std::vector<ComparisonPoint> points;
  points.reserve(sizes.size());
  for (const std::size_t n : sizes) points.push_back(compare_at_size(base, n, trials));
  return points;
}

std::vector<std::size_t> paper_sizes() { return {100, 500, 1000, 2000, 4000, 8000}; }

}  // namespace gs::exp
