// Figure 12: communication overhead across network sizes, dynamic
// environments (5% leave + 5% join per period).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  gs::exp::Config base = gs::exp::Config::paper_dynamic(1000, gs::exp::AlgorithmKind::kFast);
  gs::benchtool::BenchOptions options;
  if (!gs::benchtool::parse_bench_flags(argc, argv, options, base)) return 0;
  const auto points = gs::exp::sweep_sizes(base, options.sizes, options.trials);
  gs::exp::print_overhead("Fig. 12: communication overhead (dynamic environments)", points);
  if (!options.csv.empty()) gs::exp::write_comparison_csv(options.csv, points);
  return 0;
}
