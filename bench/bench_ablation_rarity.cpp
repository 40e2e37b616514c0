// Ablation A1: the paper's buffer-position rarity (eq. 8) versus the
// "traditional" 1/n_i rarity the paper argues against (§4).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  gs::exp::Config base = gs::exp::Config::paper_static(1000, gs::exp::AlgorithmKind::kFast);
  gs::benchtool::BenchOptions options;
  if (!gs::benchtool::parse_bench_flags(argc, argv, options, base, "500,1000",
                                        {"traditional-rarity"})) {
    return 0;
  }

  std::printf("=== A1: rarity definition ablation (fast switch algorithm) ===\n");
  std::printf("%8s  %22s  %22s\n", "nodes", "switch_time(eq.8)", "switch_time(1/n)");
  for (const std::size_t nodes : options.sizes) {
    double paper_rarity = 0.0;
    double traditional = 0.0;
    for (std::size_t trial = 0; trial < options.trials; ++trial) {
      gs::exp::Config a = gs::benchtool::trial_config(base, nodes, trial);
      paper_rarity += gs::exp::run_once(a).primary().avg_prepared_time();
      gs::exp::Config b = a;
      b.priority.traditional_rarity = true;
      traditional += gs::exp::run_once(b).primary().avg_prepared_time();
    }
    const auto n = static_cast<double>(options.trials);
    std::printf("%8zu  %22.2f  %22.2f\n", nodes, paper_rarity / n, traditional / n);
  }
  std::printf("\npaper's claim: the replacement-probability rarity is the more reasonable\n"
              "definition; expect comparable or slightly better switch times with eq. 8.\n");
  return 0;
}
