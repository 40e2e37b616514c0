// Figure 7: average switch time and its reduction ratio, static environments.
//
// Paper result: reduction ratio between 0.2 and 0.3, tending to increase
// with the network scale (100..8000 nodes).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  gs::exp::Config base = gs::exp::Config::paper_static(1000, gs::exp::AlgorithmKind::kFast);
  gs::benchtool::BenchOptions options;
  if (!gs::benchtool::parse_bench_flags(argc, argv, options, base)) return 0;
  const auto points = gs::exp::sweep_sizes(base, options.sizes, options.trials);
  gs::exp::print_switch_reduction(
      "Fig. 7: avg switch time and reduction ratio (static environments)", points);
  if (!options.csv.empty()) gs::exp::write_comparison_csv(options.csv, points);
  return 0;
}
