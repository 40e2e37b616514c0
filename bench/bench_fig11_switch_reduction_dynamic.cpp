// Figure 11: average switch time and reduction ratio, dynamic environments.
//
// Paper result: consistent with the static case — reduction between 0.2 and
// 0.3, tending to grow with the network scale.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  gs::exp::Config base = gs::exp::Config::paper_dynamic(1000, gs::exp::AlgorithmKind::kFast);
  gs::benchtool::BenchOptions options;
  if (!gs::benchtool::parse_bench_flags(argc, argv, options, base)) return 0;
  const auto points = gs::exp::sweep_sizes(base, options.sizes, options.trials);
  gs::exp::print_switch_reduction(
      "Fig. 11: avg switch time and reduction ratio (dynamic environments)", points);
  if (!options.csv.empty()) gs::exp::write_comparison_csv(options.csv, points);
  return 0;
}
