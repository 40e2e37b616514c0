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

#include "experiments/config.hpp"
#include "experiments/report.hpp"
#include "experiments/runner.hpp"
#include "experiments/settings.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  gs::exp::Config base = gs::exp::Config::paper_static(1000, gs::exp::AlgorithmKind::kFast);
  gs::util::Flags flags;
  flags.define("sizes", "500,1000", "comma-separated overlay sizes");
  flags.define_int("trials", 3, "paired trials per size");
  flags.define_bool("print-diagnostics", false,
                    "run one fast-algorithm trial per size and print the engine "
                    "diagnostics (events, probes, shard/drain counters)");
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
    std::printf("\nengine diagnostics (one fast-algorithm trial per size; proc_peak_mb is "
                "the whole process's peak RSS so far)\n");
    std::printf("%8s %12s %12s %12s %12s %9s %9s %11s %9s %10s %10s "
                "%10s %9s %8s %8s %11s %9s %12s\n",
                "peers", "events", "wheeled", "late", "probes", "promo", "spill_pk",
                "plans_built", "sweeps", "dlv_batch", "colour_cls",
                "par_commit", "flash", "cdn_mb", "assisted", "bytes/peer", "wheel_mb",
                "proc_peak_mb");
    for (const std::size_t n : sizes) {
      gs::exp::Config config = base;
      config.node_count = n;
      const gs::exp::RunResult result = gs::exp::run_once(config);
      const gs::stream::EngineStats& s = result.stats;
      // Telemetry can be absent (no /proc => peak_rss_bytes == 0; no peers
      // => bytes_per_peer is NaN): print "n/a", never a fake 0.0.
      char bytes_per_peer[32];
      char proc_peak_mb[32];
      if (!std::isnan(s.bytes_per_peer)) {
        std::snprintf(bytes_per_peer, sizeof(bytes_per_peer), "%.0f", s.bytes_per_peer);
      } else {
        std::snprintf(bytes_per_peer, sizeof(bytes_per_peer), "n/a");
      }
      if (s.peak_rss_bytes > 0) {
        std::snprintf(proc_peak_mb, sizeof(proc_peak_mb), "%.1f",
                      static_cast<double>(s.peak_rss_bytes) / (1024.0 * 1024.0));
      } else {
        std::snprintf(proc_peak_mb, sizeof(proc_peak_mb), "n/a");
      }
      std::printf(
          "%8zu %12llu %12llu %12llu %12llu %9llu %9llu %11llu %9llu "
          "%10llu %10llu %10llu %9zu %8.1f %8zu %11s %9.1f %12s\n",
          n, static_cast<unsigned long long>(s.events_popped),
          static_cast<unsigned long long>(s.events_wheeled),
          static_cast<unsigned long long>(s.wheel_late_arrivals),
          static_cast<unsigned long long>(s.availability_probes),
          static_cast<unsigned long long>(s.wheel_overflow_promotions),
          static_cast<unsigned long long>(s.spill_heap_peak),
          static_cast<unsigned long long>(s.plans_built),
          static_cast<unsigned long long>(s.parallel_sweeps),
          static_cast<unsigned long long>(s.delivery_batches),
          static_cast<unsigned long long>(s.commit_colour_classes),
          static_cast<unsigned long long>(s.parallel_commits), s.flash_joins,
          static_cast<double>(s.cdn_bytes_served) / (1024.0 * 1024.0),
          s.cdn_assisted_switches, bytes_per_peer,
          static_cast<double>(s.event_queue_bytes) / (1024.0 * 1024.0), proc_peak_mb);
    }
  }
  if (!flags.get("csv").empty()) {
    gs::exp::write_comparison_csv(flags.get("csv"), points);
    std::printf("\nwrote %s\n", flags.get("csv").c_str());
  }
  return 0;
}
