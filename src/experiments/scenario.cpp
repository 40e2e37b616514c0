#include "experiments/scenario.hpp"

#include <algorithm>

#include "core/fast_switch.hpp"
#include "core/normal_switch.hpp"
#include "net/topology.hpp"
#include "util/check.hpp"

namespace gs::exp {
namespace {

/// Per-node pings for generator topologies (trace topologies carry their
/// own); same long-tailed model as the trace synthesizer.
std::vector<double> synthetic_pings(std::size_t n, const Config& config, util::Rng& rng) {
  std::vector<double> pings(n);
  for (auto& ping : pings) {
    ping = std::min(rng.pareto(config.engine.join_ping_min_ms, config.engine.join_ping_shape),
                    config.engine.join_ping_cap_ms);
  }
  return pings;
}

}  // namespace

BuiltScenario build_scenario(const Config& config) {
  config.validate();
  util::Rng rng(util::splitmix64(config.seed ^ util::hash_name("scenario")));
  BuiltScenario scenario;

  switch (config.topology) {
    case TopologyKind::kSyntheticTrace: {
      net::TraceSynthesisOptions options;
      options.node_count = config.node_count;
      util::Rng trace_rng = rng.fork(util::hash_name("trace"));
      const net::Trace trace = net::synthesize_trace(options, trace_rng);
      scenario.graph = trace.to_graph();
      std::vector<double> pings(trace.nodes.size());
      for (std::size_t i = 0; i < trace.nodes.size(); ++i) pings[i] = trace.nodes[i].ping_ms;
      scenario.latency = net::LatencyModel(std::move(pings));
      break;
    }
    case TopologyKind::kTraceFile: {
      const net::Trace trace = net::parse_trace_file(config.trace_path);
      GS_CHECK_GE(trace.node_count(), 3u);
      scenario.graph = trace.to_graph();
      std::vector<double> pings(trace.nodes.size());
      for (std::size_t i = 0; i < trace.nodes.size(); ++i) pings[i] = trace.nodes[i].ping_ms;
      scenario.latency = net::LatencyModel(std::move(pings));
      break;
    }
    case TopologyKind::kPreferential: {
      util::Rng topo_rng = rng.fork(util::hash_name("topo"));
      scenario.graph = net::preferential_attachment(config.node_count, 2, topo_rng);
      scenario.latency =
          net::LatencyModel(synthetic_pings(config.node_count, config, topo_rng));
      break;
    }
    case TopologyKind::kErdosRenyi: {
      util::Rng topo_rng = rng.fork(util::hash_name("topo"));
      scenario.graph =
          net::erdos_renyi(config.node_count, config.node_count * 2, topo_rng);
      scenario.latency =
          net::LatencyModel(synthetic_pings(config.node_count, config, topo_rng));
      break;
    }
    case TopologyKind::kWattsStrogatz: {
      util::Rng topo_rng = rng.fork(util::hash_name("topo"));
      scenario.graph = net::watts_strogatz(config.node_count, 2, 0.2, topo_rng);
      scenario.latency =
          net::LatencyModel(synthetic_pings(config.node_count, config, topo_rng));
      break;
    }
    case TopologyKind::kRing: {
      util::Rng topo_rng = rng.fork(util::hash_name("topo"));
      scenario.graph = net::ring_with_chords(config.node_count, config.node_count / 2, topo_rng);
      scenario.latency =
          net::LatencyModel(synthetic_pings(config.node_count, config, topo_rng));
      break;
    }
  }

  // The paper's repair step: "we add random edges into each overlay to let
  // every node hold M=5 connected neighbors".
  util::Rng repair_rng = rng.fork(util::hash_name("repair"));
  net::repair_min_degree(scenario.graph, config.neighbor_target, repair_rng);

  // Serial sources: distinct random nodes.
  util::Rng source_rng = rng.fork(util::hash_name("sources"));
  const auto picks =
      source_rng.sample_without_replacement(scenario.graph.node_count(), config.source_count());
  scenario.sources.reserve(picks.size());
  for (const std::size_t pick : picks) {
    scenario.sources.push_back(static_cast<net::NodeId>(pick));
  }
  return scenario;
}

std::shared_ptr<stream::SchedulerStrategy> make_strategy(const Config& config) {
  switch (config.algorithm) {
    case AlgorithmKind::kFast:
      return std::make_shared<core::FastSwitchScheduler>(config.priority);
    case AlgorithmKind::kNormal:
      return std::make_shared<core::NormalSwitchScheduler>(config.priority);
  }
  GS_CHECK(false) << "unreachable algorithm kind";
  return nullptr;
}

std::unique_ptr<stream::Engine> make_engine(const Config& config,
                                            std::shared_ptr<stream::SchedulerStrategy> strategy) {
  BuiltScenario scenario = build_scenario(config);
  stream::EngineConfig engine_config = config.engine;
  engine_config.membership_degree = config.neighbor_target;
  engine_config.seed = config.seed;
  if (!strategy) strategy = make_strategy(config);
  auto engine = std::make_unique<stream::Engine>(std::move(scenario.graph),
                                                 std::move(scenario.latency), engine_config,
                                                 std::move(strategy));
  engine->set_sources(std::move(scenario.sources), config.switch_times);
  return engine;
}

}  // namespace gs::exp
