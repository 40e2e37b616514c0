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
#include <vector>

#include "experiments/config.hpp"
#include "experiments/report.hpp"
#include "experiments/runner.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"

namespace {

std::vector<std::size_t> parse_sizes(const std::string& list) {
  std::vector<std::size_t> sizes;
  std::size_t pos = 0;
  while (pos < list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string token =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!token.empty()) sizes.push_back(static_cast<std::size_t>(std::stoull(token)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return sizes;
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Flags flags;
  flags.define("sizes", "500,1000", "comma-separated overlay sizes");
  flags.define_int("trials", 3, "paired trials per size");
  flags.define_int("seed", 1, "base seed");
  flags.define("topology", "synthetic-trace",
               "synthetic-trace|preferential|erdos-renyi|watts-strogatz|ring|trace-file");
  flags.define("trace", "", "trace file path (for --topology trace-file)");
  flags.define_int("neighbor", 5, "M: target neighbour count");
  flags.define_double("churn", 0.0, "leave/join fraction per period (0.05 = paper dynamic)");
  flags.define_int("qs", 50, "Qs: startup segments of the new source");
  flags.define_int("q", 10, "Q: consecutive segments for playback");
  flags.define_double("source-outbound", 120.0, "source outbound rate (segments/s)");
  flags.define_double("diversity", 0.25, "substrate diversity reservation fraction");
  flags.define_bool("traditional-rarity", false, "use 1/n rarity instead of eq. 8");
  flags.define("capacity-model", "shared-fifo",
               "supplier capacity model: shared-fifo|per-link|token-bucket");
  flags.define_double("token-bucket-burst", 4.0,
                      "token-bucket burst depth in segments (>= 1)");
  flags.define_bool("delta-maps", false,
                    "charge availability gossip as buffer-map deltas (lowers the "
                    "overhead metric)");
  flags.define_int("map-refresh", 10, "adverts between full-map refreshes under --delta-maps");
  flags.define_int("tick-shard", 16, "peers per tick shard (phase group and sweep event)");
  flags.define_int("parallel-shards", 0,
                   "sharded parallel core: plan/commit lanes / delivery-drain "
                   "shards (identical metrics at any count; 0 = sequential)");
  flags.define_int("flash-crowd-joins", 0,
                   "flash-crowd scenario: this many extra peers join shortly "
                   "after the first switch (0 = off)");
  flags.define_double("flash-crowd-start", 0.5,
                      "seconds after the first switch the crowd starts joining");
  flags.define_double("flash-crowd-duration", 2.0,
                      "seconds over which the crowd is admitted");
  flags.define_bool("cdn-assist", false,
                    "CDN-assisted fast switch: a capacity-limited patch source "
                    "bursts the head of the new session to switching peers "
                    "(changes dynamics by design; off = bit-identical)");
  flags.define_double("cdn-rate", 120.0, "CDN uplink capacity (segments/s)");
  flags.define_double("cdn-latency-ms", 40.0, "fixed CDN->peer latency (ms)");
  flags.define_double("cdn-pause", 3.0,
                      "buffered lead (s) at which a patch burst pauses");
  flags.define_double("cdn-resume", 1.0,
                      "buffered lead (s) under which a paused burst resumes");
  flags.define_int("cdn-span", 0,
                   "cap on patched segments per switch (0 = the full Qs prefix)");
  flags.define_bool("print-diagnostics", false,
                    "run one fast-algorithm trial per size and print the engine "
                    "diagnostics (events, probes, shard/drain counters)");
  flags.define_bool("push", false, "enable GridMedia-style fresh-segment push");
  flags.define_int("push-fanout", 2, "push fanout when --push");
  flags.define("csv", "", "write the comparison table to this CSV");
  flags.define("log", "warn", "log level");
  if (!flags.parse(argc, argv)) return 0;
  gs::util::set_log_level(gs::util::parse_log_level(flags.get("log")));

  gs::exp::Config base = gs::exp::Config::paper_static(
      1000, gs::exp::AlgorithmKind::kFast, static_cast<std::uint64_t>(flags.get_int("seed")));
  base.topology = gs::exp::topology_from_string(flags.get("topology"));
  base.trace_path = flags.get("trace");
  base.neighbor_target = static_cast<std::size_t>(flags.get_int("neighbor"));
  if (flags.get_double("churn") > 0.0) base.enable_churn(flags.get_double("churn"));
  base.engine.q_startup = static_cast<std::size_t>(flags.get_int("qs"));
  base.engine.q_consecutive = static_cast<std::size_t>(flags.get_int("q"));
  base.engine.source_outbound = flags.get_double("source-outbound");
  base.priority.diversity_fraction = flags.get_double("diversity");
  base.priority.traditional_rarity = flags.get_bool("traditional-rarity");
  base.engine.supplier_capacity = gs::exp::capacity_from_string(flags.get("capacity-model"));
  base.engine.token_bucket_burst = flags.get_double("token-bucket-burst");
  base.engine.delta_maps = flags.get_bool("delta-maps");
  base.engine.map_refresh_period = static_cast<std::size_t>(flags.get_int("map-refresh"));
  base.engine.tick_shard_size = static_cast<std::size_t>(flags.get_int("tick-shard"));
  base.enable_parallel_shards(static_cast<std::size_t>(flags.get_int("parallel-shards")));
  if (flags.get_int("flash-crowd-joins") > 0) {
    base.enable_flash_crowd(static_cast<std::size_t>(flags.get_int("flash-crowd-joins")),
                            flags.get_double("flash-crowd-start"),
                            flags.get_double("flash-crowd-duration"));
  }
  base.engine.push_fresh_segments = flags.get_bool("push");
  base.engine.push_fanout = static_cast<std::size_t>(flags.get_int("push-fanout"));
  base.enable_cdn_assist(flags.get_bool("cdn-assist"));
  base.engine.cdn_assist_rate = flags.get_double("cdn-rate");
  base.engine.cdn_assist_latency_ms = flags.get_double("cdn-latency-ms");
  base.engine.cdn_assist_pause_s = flags.get_double("cdn-pause");
  base.engine.cdn_assist_resume_s = flags.get_double("cdn-resume");
  base.engine.cdn_assist_span = static_cast<std::size_t>(flags.get_int("cdn-span"));

  const auto sizes = parse_sizes(flags.get("sizes"));
  const auto points =
      gs::exp::sweep_sizes(base, sizes, static_cast<std::size_t>(flags.get_int("trials")));

  gs::exp::print_times_table("custom sweep: finishing / preparing times", points);
  gs::exp::print_switch_reduction("custom sweep: switch time and reduction", points);
  gs::exp::print_overhead("custom sweep: communication overhead", points);

  if (flags.get_bool("print-diagnostics")) {
    std::printf("\nengine diagnostics (one fast-algorithm trial per size)\n");
    std::printf("%8s %12s %12s %12s %12s %9s %9s %11s %9s %10s %10s "
                "%10s %9s %8s %8s %11s %9s %9s\n",
                "peers", "events", "wheeled", "late", "probes", "promo", "spill_pk",
                "plans_built", "sweeps", "dlv_batch", "colour_cls",
                "par_commit", "flash", "cdn_mb", "assisted", "bytes/peer", "wheel_mb", "rss_mb");
    for (const std::size_t n : sizes) {
      gs::exp::Config config = base;
      config.node_count = n;
      config.algorithm = gs::exp::AlgorithmKind::kFast;
      const gs::exp::RunResult result = gs::exp::run_once(config);
      const gs::stream::EngineStats& s = result.stats;
      // Telemetry can be absent (no /proc => peak_rss_bytes == 0; no peers
      // => bytes_per_peer is NaN): print "n/a", never a fake 0.0.
      char bytes_per_peer[32];
      char rss_mb[32];
      if (!std::isnan(s.bytes_per_peer)) {
        std::snprintf(bytes_per_peer, sizeof(bytes_per_peer), "%.0f", s.bytes_per_peer);
      } else {
        std::snprintf(bytes_per_peer, sizeof(bytes_per_peer), "n/a");
      }
      if (s.peak_rss_bytes > 0) {
        std::snprintf(rss_mb, sizeof(rss_mb), "%.1f",
                      static_cast<double>(s.peak_rss_bytes) / (1024.0 * 1024.0));
      } else {
        std::snprintf(rss_mb, sizeof(rss_mb), "n/a");
      }
      std::printf(
          "%8zu %12llu %12llu %12llu %12llu %9llu %9llu %11llu %9llu "
          "%10llu %10llu %10llu %9zu %8.1f %8zu %11s %9.1f %9s\n",
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
          static_cast<double>(s.event_queue_bytes) / (1024.0 * 1024.0), rss_mb);
    }
  }
  if (!flags.get("csv").empty()) {
    gs::exp::write_comparison_csv(flags.get("csv"), points);
    std::printf("\nwrote %s\n", flags.get("csv").c_str());
  }
  return 0;
}
