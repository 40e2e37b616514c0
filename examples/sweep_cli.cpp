// General experiment driver: run any fast-vs-normal sweep from the command
// line without writing code.  The figure benches are fixed recipes; this
// tool exposes the whole configuration surface for custom studies.
//
//   ./sweep_cli --sizes 200,1000 --trials 3 --topology ring --churn 0.05
//   ./sweep_cli --sizes 500 --qs 80 --neighbor 7 --capacity-model per-link --csv out.csv
//   ./sweep_cli --sizes 10000 --tick-shard 256 --parallel-shards 8
#include <cmath>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "experiments/config.hpp"
#include "experiments/report.hpp"
#include "experiments/runner.hpp"
#include "experiments/settings.hpp"
#include "stream/engine_stats.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  gs::exp::Config base = gs::exp::Config::paper_static(1000, gs::exp::AlgorithmKind::kFast);
  gs::util::Flags flags;
  flags.define("sizes", "500,1000", "comma-separated overlay sizes");
  flags.define_int("trials", 3, "paired trials per size");
  flags.define_bool("print-diagnostics", false,
                    "run one fast-algorithm trial per size and print its engine "
                    "telemetry (the rows of stream/engine_stats.hpp)");
  flags.define("csv", "", "write the comparison table to this CSV");
  flags.define("log", "warn", "log level");
  // --sizes sets the node count, and every size runs both algorithms.
  gs::exp::define_settings(flags, base, {"nodes", "algorithm"});
  if (!flags.parse(argc, argv)) return 0;
  gs::util::set_log_level(gs::util::parse_log_level(flags.get("log")));
  gs::exp::read_settings(flags, base);

  const auto sizes = flags.get_sizes("sizes");
  const auto points =
      gs::exp::sweep_sizes(base, sizes, static_cast<std::size_t>(flags.get_int("trials")));

  gs::exp::print_times_table("custom sweep: finishing / preparing times", points);
  gs::exp::print_switch_reduction("custom sweep: switch time and reduction", points);
  gs::exp::print_overhead("custom sweep: communication overhead", points);

  if (flags.get_bool("print-diagnostics")) {
    std::vector<gs::stream::EngineStats> diagnostics;
    for (const std::size_t n : sizes) {
      gs::exp::Config config = base;
      config.node_count = n;
      diagnostics.push_back(gs::exp::run_once(config).stats);
    }
    std::printf("\nengine diagnostics (one fast-algorithm trial per size; peak_rss_bytes is "
                "the whole process's peak RSS so far)\n%-36s", "row (unit)");
    for (const std::size_t n : sizes) std::printf(" %14s", ("N=" + std::to_string(n)).c_str());
    std::printf("\n");
    gs::stream::for_each_stat([&](const gs::stream::StatRow& row, auto field) {
      using Value = std::remove_cvref_t<decltype(diagnostics.front().*field)>;
      if (row.cls == gs::stream::StatClass::kRetired) return;
      std::printf("%-36s", (std::string(row.name) + " (" + row.unit + ")").c_str());
      for (const gs::stream::EngineStats& s : diagnostics) {
        const Value v = s.*field;
        // Telemetry can be absent (no /proc => peak_rss_bytes == 0; no peers
        // => bytes_per_peer is NaN): print "n/a", never a fake 0.
        if (std::isnan(static_cast<double>(v)) ||
            (row.cls == gs::stream::StatClass::kMemory && v == 0)) {
          std::printf(" %14s", "n/a");
        } else if constexpr (std::is_floating_point_v<Value>) {
          std::printf(" %14.6g", v);
        } else {
          std::printf(" %14llu", static_cast<unsigned long long>(v));
        }
      }
      std::printf("\n");
    });
  }
  if (!flags.get("csv").empty()) {
    gs::exp::write_comparison_csv(flags.get("csv"), points);
    std::printf("\nwrote %s\n", flags.get("csv").c_str());
  }
  return 0;
}
