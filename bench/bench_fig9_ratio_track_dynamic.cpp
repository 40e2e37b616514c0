// Figure 9: ratio tracks in a dynamic network (5% leave + 5% join per
// scheduling period) with 1000 nodes.
//
// Paper result: consistent with the static environment (Fig. 5).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  gs::exp::Config fast_config = gs::exp::Config::paper_dynamic(1000, gs::exp::AlgorithmKind::kFast);
  gs::benchtool::BenchOptions options;
  // The title quotes the paper's churn, so the figure owns it.
  if (!gs::benchtool::parse_bench_flags(argc, argv, options, fast_config, "1000", {"churn"})) {
    return 0;
  }
  const std::size_t nodes = options.sizes.empty() ? 1000 : options.sizes.front();
  fast_config.node_count = nodes;
  gs::exp::Config normal_config = fast_config;
  normal_config.algorithm = gs::exp::AlgorithmKind::kNormal;
  const gs::exp::RunResult fast = gs::exp::run_once(fast_config);
  const gs::exp::RunResult normal = gs::exp::run_once(normal_config);

  gs::exp::print_ratio_tracks(
      "Fig. 9: ratio tracks in a dynamic network with " + std::to_string(nodes) +
          " nodes (5%/5% churn per period)",
      fast.primary(), normal.primary());
  std::printf("\nchurn: fast run %zu joins / %zu leaves; censored prepare: fast %zu, normal %zu\n",
              fast.stats.joins, fast.stats.leaves, fast.primary().censored_prepare,
              normal.primary().censored_prepare);
  if (!options.csv.empty()) {
    gs::exp::write_tracks_csv(options.csv, fast.primary(), normal.primary());
  }
  return 0;
}
