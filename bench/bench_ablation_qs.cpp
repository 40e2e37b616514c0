// Ablation A3: sensitivity to the startup threshold Qs (the paper fixes
// Qs=50 and notes Qs is "configured much bigger than Q to guarantee a
// smooth startup of the new source").
#include "bench_common.hpp"

int main(int argc, char** argv) {
  gs::exp::Config base = gs::exp::Config::paper_static(1000, gs::exp::AlgorithmKind::kFast);
  gs::benchtool::BenchOptions options;
  if (!gs::benchtool::parse_bench_flags(argc, argv, options, base, "1000", {"qs"})) return 0;
  const std::size_t nodes = options.sizes.empty() ? 1000 : options.sizes.front();

  std::printf("=== A3: Qs sweep (%zu nodes) ===\n", nodes);
  std::printf("%4s  %20s  %20s  %12s\n", "Qs", "switch_time(norm)", "switch_time(fast)",
              "reduction");
  for (const std::size_t qs : {10u, 25u, 50u, 75u, 100u}) {
    double fast_time = 0.0;
    double normal_time = 0.0;
    for (std::size_t trial = 0; trial < options.trials; ++trial) {
      for (const bool fast : {true, false}) {
        gs::exp::Config config = gs::benchtool::trial_config(base, nodes, trial);
        config.algorithm = fast ? gs::exp::AlgorithmKind::kFast : gs::exp::AlgorithmKind::kNormal;
        config.engine.q_startup = qs;
        const double t = gs::exp::run_once(config).primary().avg_prepared_time();
        (fast ? fast_time : normal_time) += t;
      }
    }
    const auto n = static_cast<double>(options.trials);
    std::printf("%4zu  %20.2f  %20.2f  %12.3f\n", qs, normal_time / n, fast_time / n,
                gs::stream::reduction_ratio(normal_time / n, fast_time / n));
  }
  std::printf("\nlarger Qs lengthens every switch; the fast algorithm's advantage should\n"
              "persist across the sweep.\n");
  return 0;
}
