// Extension E1: GridMedia-style push-pull relaying (related work, §2).
//
// The paper: "pushing packets would bring considerable communication
// overhead" but accelerates dissemination.  This bench quantifies the
// trade-off in our substrate: push lowers the switch time further but pays
// in redundant deliveries.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  gs::exp::Config base = gs::exp::Config::paper_static(1000, gs::exp::AlgorithmKind::kFast);
  gs::benchtool::BenchOptions options;
  if (!gs::benchtool::parse_bench_flags(argc, argv, options, base, "500,1000",
                                        {"push", "push-fanout"})) {
    return 0;
  }

  std::printf("=== E1: push-pull extension (fast switch + fresh-segment push) ===\n");
  std::printf("%8s %8s  %14s  %14s  %12s  %14s\n", "nodes", "fanout", "avg_switch",
              "avg_finish_S1", "redundancy", "ctrl+data_ovh");
  for (const std::size_t nodes : options.sizes) {
    for (const std::size_t fanout : {0u, 1u, 2u, 4u}) {
      double switch_time = 0.0;
      double finish = 0.0;
      double redundancy = 0.0;
      double control = 0.0;
      for (std::size_t trial = 0; trial < options.trials; ++trial) {
        gs::exp::Config config = gs::benchtool::trial_config(base, nodes, trial);
        config.engine.push_fresh_segments = fanout > 0;
        config.engine.push_fanout = fanout;
        const gs::exp::RunResult result = gs::exp::run_once(config);
        switch_time += result.primary().avg_prepared_time();
        finish += result.primary().avg_finish_time();
        const auto delivered = static_cast<double>(result.stats.segments_delivered);
        redundancy += delivered > 0 ? static_cast<double>(result.stats.duplicates) / delivered : 0;
        control += result.primary().control_ratio;
      }
      const auto n = static_cast<double>(options.trials);
      std::printf("%8zu %8zu  %14.2f  %14.2f  %12.4f  %14.5f\n", nodes, fanout, switch_time / n,
                  finish / n, redundancy / n, control / n);
    }
  }
  std::printf("\nGridMedia's trade-off, §2 of the paper: push accelerates dissemination\n"
              "but 'pushing packets would bring considerable communication overhead'.\n"
              "In a capacity-contended mesh the redundant copies (redundancy column)\n"
              "consume the very uplinks the switch needs, so large fanouts can *hurt*\n"
              "switch times — the overhead the paper warns about, made concrete.\n");
  return 0;
}
