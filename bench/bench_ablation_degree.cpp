// Ablation A2: neighbour count M.  The paper: "M=5 is usually a good
// practical choice and using a larger M cannot bring more benefit."
#include "bench_common.hpp"

int main(int argc, char** argv) {
  gs::exp::Config base = gs::exp::Config::paper_static(1000, gs::exp::AlgorithmKind::kFast);
  gs::benchtool::BenchOptions options;
  if (!gs::benchtool::parse_bench_flags(argc, argv, options, base, "1000", {"neighbor"})) return 0;
  const std::size_t nodes = options.sizes.empty() ? 1000 : options.sizes.front();

  std::printf("=== A2: neighbour count M sweep (%zu nodes, fast switch) ===\n", nodes);
  std::printf("%4s  %18s  %18s  %14s\n", "M", "avg_switch_time", "avg_finish_S1", "overhead");
  for (const std::size_t m : {3u, 4u, 5u, 7u, 10u, 15u}) {
    double switch_time = 0.0;
    double finish = 0.0;
    double overhead = 0.0;
    for (std::size_t trial = 0; trial < options.trials; ++trial) {
      gs::exp::Config config = gs::benchtool::trial_config(base, nodes, trial);
      config.neighbor_target = m;
      const gs::exp::RunResult result = gs::exp::run_once(config);
      const auto& metrics = result.primary();
      switch_time += metrics.avg_prepared_time();
      finish += metrics.avg_finish_time();
      overhead += metrics.overhead_ratio;
    }
    const auto n = static_cast<double>(options.trials);
    std::printf("%4zu  %18.2f  %18.2f  %14.5f\n", m, switch_time / n, finish / n, overhead / n);
  }
  std::printf("\nexpect diminishing returns beyond M=5 at rising map-exchange overhead\n"
              "(overhead grows linearly with M).\n");
  return 0;
}
