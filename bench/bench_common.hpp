// Shared flag handling for the figure benches.
//
// Every figure bench accepts --trials / --seed / --sizes / --quick so the
// full suite can be run fast in CI (`--quick`) or at paper scale (default).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "experiments/config.hpp"
#include "experiments/report.hpp"
#include "experiments/runner.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"

namespace gs::benchtool {

struct BenchOptions {
  std::vector<std::size_t> sizes;
  std::size_t trials = 3;
  std::uint64_t seed = 1;
  std::string csv;  ///< optional CSV output path
  bool delta_maps = false;
  std::size_t parallel_shards = 0;
  std::size_t flash_crowd_joins = 0;
  double flash_crowd_start = 0.5;
  double flash_crowd_duration = 2.0;
  /// 0 = keep the engine default; ablation benches pass --tick-shard-size
  /// to exercise sweep granularity without recompiling.
  std::size_t tick_shard_size = 0;
  std::string capacity_model = "shared-fifo";
  bool cdn_assist = false;
  double cdn_rate = 120.0;
  double cdn_pause = 3.0;
  double cdn_resume = 1.0;

  /// Applies the engine-level options to a run configuration.  Every bench
  /// calls this on its base Config so flags like --parallel-shards work
  /// uniformly across the suite.
  void apply_engine(exp::Config& config) const {
    config.engine.delta_maps = delta_maps;
    config.enable_parallel_shards(parallel_shards);
    if (flash_crowd_joins > 0) {
      config.enable_flash_crowd(flash_crowd_joins, flash_crowd_start, flash_crowd_duration);
    }
    if (tick_shard_size > 0) config.engine.tick_shard_size = tick_shard_size;
    config.engine.supplier_capacity = exp::capacity_from_string(capacity_model);
    config.enable_cdn_assist(cdn_assist);
    config.engine.cdn_assist_rate = cdn_rate;
    config.engine.cdn_assist_pause_s = cdn_pause;
    config.engine.cdn_assist_resume_s = cdn_resume;
  }
};

/// Parses the standard bench flags.  Returns false if --help was printed.
inline bool parse_bench_flags(int argc, char** argv, BenchOptions& options,
                              const std::string& default_sizes = "100,500,1000,2000,4000,8000") {
  util::Flags flags;
  flags.define("sizes", default_sizes, "comma-separated overlay sizes");
  flags.define_int("trials", 3, "paired trials per size");
  flags.define_int("seed", 1, "base experiment seed");
  flags.define_bool("quick", false, "small sizes / single trial (CI smoke)");
  flags.define_bool("delta-maps", false,
                    "charge availability gossip as buffer-map deltas (lowers the "
                    "overhead metric)");
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
  flags.define_int("tick-shard-size", 0,
                   "peers per tick shard / sweep group (0 = engine default)");
  flags.define("capacity-model", "shared-fifo",
               "supplier capacity model: shared-fifo|per-link|token-bucket");
  flags.define_bool("cdn-assist", false,
                    "CDN-assisted fast switch (changes dynamics by design)");
  flags.define_double("cdn-rate", 120.0, "CDN uplink capacity (segments/s)");
  flags.define_double("cdn-pause", 3.0,
                      "buffered lead (s) at which a patch burst pauses");
  flags.define_double("cdn-resume", 1.0,
                      "buffered lead (s) under which a paused burst resumes");
  flags.define("csv", "", "optional CSV output path");
  flags.define("log", "warn", "log level");
  if (!flags.parse(argc, argv)) return false;
  util::set_log_level(util::parse_log_level(flags.get("log")));

  options.trials = static_cast<std::size_t>(flags.get_int("trials"));
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  options.csv = flags.get("csv");
  options.delta_maps = flags.get_bool("delta-maps");
  options.parallel_shards = static_cast<std::size_t>(flags.get_int("parallel-shards"));
  options.flash_crowd_joins = static_cast<std::size_t>(flags.get_int("flash-crowd-joins"));
  options.flash_crowd_start = flags.get_double("flash-crowd-start");
  options.flash_crowd_duration = flags.get_double("flash-crowd-duration");
  options.tick_shard_size = static_cast<std::size_t>(flags.get_int("tick-shard-size"));
  options.capacity_model = flags.get("capacity-model");
  options.cdn_assist = flags.get_bool("cdn-assist");
  options.cdn_rate = flags.get_double("cdn-rate");
  options.cdn_pause = flags.get_double("cdn-pause");
  options.cdn_resume = flags.get_double("cdn-resume");

  std::string list = flags.get_bool("quick") ? "100,500" : flags.get("sizes");
  if (flags.get_bool("quick")) options.trials = 1;
  options.sizes.clear();
  std::size_t pos = 0;
  while (pos < list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string token = list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!token.empty()) options.sizes.push_back(static_cast<std::size_t>(std::stoull(token)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return true;
}

}  // namespace gs::benchtool
