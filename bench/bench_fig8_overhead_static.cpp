// Figure 8: communication overhead across network sizes, static
// environments.
//
// Paper result: around 1-2% for both algorithms (a little above the 1%
// back-of-envelope of S5.3 because most nodes' delivery rate trails the
// play rate), with the fast algorithm slightly lower.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  gs::exp::Config base = gs::exp::Config::paper_static(1000, gs::exp::AlgorithmKind::kFast);
  gs::benchtool::BenchOptions options;
  if (!gs::benchtool::parse_bench_flags(argc, argv, options, base)) return 0;
  const auto points = gs::exp::sweep_sizes(base, options.sizes, options.trials);
  gs::exp::print_overhead("Fig. 8: communication overhead (static environments)", points);
  if (!options.csv.empty()) gs::exp::write_comparison_csv(options.csv, points);
  return 0;
}
