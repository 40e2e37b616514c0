// Shared flag handling for the figure benches.
//
// Every figure bench accepts --trials / --sizes / --quick so the full suite
// can be run fast in CI (`--quick`) or at paper scale (default), plus one
// flag per setting of the configuration schema (experiments/settings.hpp).
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "experiments/config.hpp"
#include "experiments/report.hpp"
#include "experiments/runner.hpp"
#include "experiments/settings.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"

namespace gs::benchtool {

/// The run shape; the settings live in the bench's base Config.
struct BenchOptions {
  std::vector<std::size_t> sizes;
  std::size_t trials = 3;
  std::string csv;  ///< optional CSV output path
};

/// Parses the standard bench flags, plus any the bench defined on `extra`.
/// The setting flags default to `config`'s values (the bench's recipe) and
/// write back into it.  --sizes and the bench's runs own the node count and
/// algorithm; `axes` lists the further setting flags the bench sweeps
/// itself.  Returns false if --help was printed.
inline bool parse_bench_flags(int argc, char** argv, BenchOptions& options, exp::Config& config,
                              const std::string& default_sizes = "100,500,1000,2000,4000,8000",
                              std::vector<std::string_view> axes = {},
                              util::Flags* extra = nullptr) {
  util::Flags local;
  util::Flags& flags = extra != nullptr ? *extra : local;
  flags.define("sizes", default_sizes, "comma-separated overlay sizes");
  flags.define_int("trials", 3, "paired trials per size");
  flags.define_bool("quick", false, "small sizes / single trial (CI smoke)");
  flags.define("csv", "", "optional CSV output path");
  flags.define("log", "warn", "log level");
  axes.insert(axes.end(), {"nodes", "algorithm"});
  exp::define_settings(flags, config, axes);
  if (!flags.parse(argc, argv)) return false;
  util::set_log_level(util::parse_log_level(flags.get("log")));
  exp::read_settings(flags, config);

  const bool quick = flags.get_bool("quick");
  options.trials = quick ? 1 : static_cast<std::size_t>(flags.get_int("trials"));
  options.sizes = quick ? std::vector<std::size_t>{100, 500} : flags.get_sizes("sizes");
  options.csv = flags.get("csv");
  return true;
}

/// Trial `trial` of a bench's sweep at `nodes` peers: the recipe with the
/// bench-wide trial seed, base seed + 1000 * trial.
inline exp::Config trial_config(const exp::Config& base, std::size_t nodes, std::size_t trial) {
  exp::Config config = base;
  config.node_count = nodes;
  config.seed = base.seed + trial * 1000;
  return config;
}

}  // namespace gs::benchtool
