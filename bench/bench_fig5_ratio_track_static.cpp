// Figure 5: undelivered ratio of S1 and delivered ratio of S2 over time,
// static network with 1000 nodes, both algorithms.
//
// Paper result: the normal algorithm drains S1 faster but prepares S2
// slower; the fast algorithm "compromises" and finishes both around the
// same time, making the whole switch faster.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  gs::exp::Config fast_config = gs::exp::Config::paper_static(1000, gs::exp::AlgorithmKind::kFast);
  gs::benchtool::BenchOptions options;
  if (!gs::benchtool::parse_bench_flags(argc, argv, options, fast_config, "1000")) return 0;
  const std::size_t nodes = options.sizes.empty() ? 1000 : options.sizes.front();

  fast_config.node_count = nodes;
  gs::exp::Config normal_config = fast_config;
  normal_config.algorithm = gs::exp::AlgorithmKind::kNormal;
  const gs::exp::RunResult fast = gs::exp::run_once(fast_config);
  const gs::exp::RunResult normal = gs::exp::run_once(normal_config);

  gs::exp::print_ratio_tracks(
      "Fig. 5: ratio tracks in a static network with " + std::to_string(nodes) + " nodes",
      fast.primary(), normal.primary());
  std::printf("\nlast finish (normal %.1f s, fast %.1f s); last prepare (normal %.1f s, fast %.1f s)\n",
              normal.primary().max_finish_time(), fast.primary().max_finish_time(),
              normal.primary().max_prepared_time(), fast.primary().max_prepared_time());
  if (!options.csv.empty()) {
    gs::exp::write_tracks_csv(options.csv, fast.primary(), normal.primary());
  }
  return 0;
}
