// Quickstart: run one source switch on a 200-node overlay with both
// algorithms and compare the paper's headline metric (average switch time).
//
//   ./quickstart [--nodes 200] [--seed 7] [--dynamic]   (--help lists every setting)
#include <cstdio>

#include "experiments/config.hpp"
#include "experiments/runner.hpp"
#include "experiments/settings.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  gs::exp::Config base = gs::exp::Config::paper_static(200, gs::exp::AlgorithmKind::kFast, 7);
  gs::util::Flags flags;
  flags.define_bool("dynamic", false, "apply 5%/5% churn per period (--churn 0.05)");
  flags.define("log", "warn", "log level (debug|info|warn|error|off)");
  gs::exp::define_settings(flags, base, {"algorithm"});  // runs both
  if (!flags.parse(argc, argv)) return 0;
  gs::util::set_log_level(gs::util::parse_log_level(flags.get("log")));
  gs::exp::read_settings(flags, base);
  if (flags.get_bool("dynamic")) base.enable_churn();

  std::printf("gossipstream quickstart: %zu nodes, seed %llu, %s environment\n", base.node_count,
              static_cast<unsigned long long>(base.seed),
              base.engine.churn_leave_fraction > 0.0 ? "dynamic" : "static");

  for (const auto algorithm : {gs::exp::AlgorithmKind::kNormal, gs::exp::AlgorithmKind::kFast}) {
    gs::exp::Config config = base;
    config.algorithm = algorithm;
    const gs::exp::RunResult result = gs::exp::run_once(config);
    const auto& m = result.primary();
    std::printf(
        "  %-6s  avg_finish_S1=%6.2fs  avg_switch=%6.2fs  max_switch=%6.2fs  overhead=%.4f  "
        "(%zu/%zu nodes completed, %.2fs wall)\n",
        std::string(gs::exp::to_string(algorithm)).c_str(), m.avg_finish_time(),
        m.avg_prepared_time(), m.max_prepared_time(), m.overhead_ratio, m.prepared_s2, m.tracked,
        result.wall_seconds);
  }
  std::printf("\nThe fast switch algorithm should show a noticeably smaller avg_switch\n"
              "at identical overhead; see bench/ for the full figure reproductions.\n");
  return 0;
}
