// Extension E2: serial multi-switch sessions (the paper's video-conference
// motivation: "there is usually only one source (that is the speaker) at a
// time", switching repeatedly).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  gs::exp::Config base = gs::exp::Config::paper_static(500, gs::exp::AlgorithmKind::kFast);
  base.switch_times = {0.0, 60.0, 120.0};  // 4 speakers, 3 hand-overs
  base.engine.horizon = 150.0;
  gs::benchtool::BenchOptions options;
  if (!gs::benchtool::parse_bench_flags(argc, argv, options, base, "500")) return 0;
  const std::size_t nodes = options.sizes.empty() ? 500 : options.sizes.front();

  std::printf("=== E2: four speakers in series (%zu nodes) ===\n", nodes);
  std::printf("%10s  %10s  %18s  %18s\n", "algorithm", "switch#", "avg_switch_time",
              "avg_finish_prev");
  for (const auto algorithm : {gs::exp::AlgorithmKind::kNormal, gs::exp::AlgorithmKind::kFast}) {
    gs::exp::Config config = base;
    config.node_count = nodes;
    config.algorithm = algorithm;
    const gs::exp::RunResult result = gs::exp::run_once(config);
    for (const auto& m : result.switches) {
      std::printf("%10s  %10d  %18.2f  %18.2f\n",
                  std::string(gs::exp::to_string(algorithm)).c_str(), m.switch_index,
                  m.avg_prepared_time(), m.avg_finish_time());
    }
  }
  std::printf("\nevery hand-over should show the fast algorithm ahead; later switches\n"
              "start from the steady state the previous session re-established.\n");
  return 0;
}
