// Builds a runnable scenario (overlay + latency + sources + strategy) from
// a Config, mirroring the paper's methodology: take a crawl-like topology,
// add random edges until every node holds M connected neighbours, assign
// bandwidths, pick the serial sources.
#pragma once

#include <memory>

#include "experiments/config.hpp"
#include "net/latency.hpp"
#include "net/trace.hpp"
#include "stream/engine.hpp"

namespace gs::exp {

struct BuiltScenario {
  net::Graph graph;
  net::LatencyModel latency;
  std::vector<net::NodeId> sources;
};

/// Deterministic in (config.seed, config fields).
[[nodiscard]] BuiltScenario build_scenario(const Config& config);

/// Instantiates the configured scheduling strategy.
[[nodiscard]] std::shared_ptr<stream::SchedulerStrategy> make_strategy(const Config& config);

/// Convenience: fully wired engine, ready to run().  The engine's
/// membership degree and seed come from config.neighbor_target and
/// config.seed; `strategy` defaults to make_strategy(config).
[[nodiscard]] std::unique_ptr<stream::Engine> make_engine(
    const Config& config, std::shared_ptr<stream::SchedulerStrategy> strategy = nullptr);

}  // namespace gs::exp
