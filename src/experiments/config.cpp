#include "experiments/config.hpp"

#include <stdexcept>

namespace gs::exp {

std::string_view to_string(TopologyKind kind) noexcept {
  switch (kind) {
    case TopologyKind::kSyntheticTrace:
      return "synthetic-trace";
    case TopologyKind::kPreferential:
      return "preferential";
    case TopologyKind::kErdosRenyi:
      return "erdos-renyi";
    case TopologyKind::kWattsStrogatz:
      return "watts-strogatz";
    case TopologyKind::kRing:
      return "ring";
    case TopologyKind::kTraceFile:
      return "trace-file";
  }
  return "unknown";
}

std::string_view to_string(AlgorithmKind kind) noexcept {
  switch (kind) {
    case AlgorithmKind::kFast:
      return "fast";
    case AlgorithmKind::kNormal:
      return "normal";
  }
  return "unknown";
}

AlgorithmKind algorithm_from_string(std::string_view name) {
  if (name == "fast") return AlgorithmKind::kFast;
  if (name == "normal") return AlgorithmKind::kNormal;
  throw std::invalid_argument("unknown algorithm: " + std::string(name));
}

stream::SupplierCapacityModel capacity_from_string(std::string_view name) {
  for (const auto kind : {stream::SupplierCapacityModel::kSharedFifo,
                          stream::SupplierCapacityModel::kPerLink,
                          stream::SupplierCapacityModel::kTokenBucket}) {
    if (name == stream::to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown capacity model: " + std::string(name));
}

TopologyKind topology_from_string(std::string_view name) {
  if (name == "synthetic-trace") return TopologyKind::kSyntheticTrace;
  if (name == "preferential") return TopologyKind::kPreferential;
  if (name == "erdos-renyi") return TopologyKind::kErdosRenyi;
  if (name == "watts-strogatz") return TopologyKind::kWattsStrogatz;
  if (name == "ring") return TopologyKind::kRing;
  if (name == "trace-file") return TopologyKind::kTraceFile;
  throw std::invalid_argument("unknown topology: " + std::string(name));
}

void Config::validate() const {
  if (node_count < 3) throw std::invalid_argument("node_count must be >= 3");
  if (switch_times.empty()) throw std::invalid_argument("at least one switch required");
  for (std::size_t i = 1; i < switch_times.size(); ++i) {
    if (switch_times[i - 1] >= switch_times[i]) {
      throw std::invalid_argument("switch_times must be strictly increasing");
    }
  }
  if (source_count() >= node_count) throw std::invalid_argument("more sources than nodes");
  if (neighbor_target == 0 || neighbor_target >= node_count) {
    throw std::invalid_argument("neighbor_target must be in [1, node_count)");
  }
  if (topology == TopologyKind::kTraceFile && trace_path.empty()) {
    throw std::invalid_argument("trace_path required for kTraceFile");
  }
  if (engine.warmup <= 0.0) throw std::invalid_argument("warmup must be positive");
  if (engine.tau <= 0.0) throw std::invalid_argument("tau must be positive");
  if (engine.playback_rate <= 0.0) {
    throw std::invalid_argument("playback_rate must be positive");
  }
  if (engine.buffer_capacity < engine.q_startup) {
    throw std::invalid_argument("buffer_capacity must hold the q_startup prefix");
  }
  if (engine.buffer_capacity > stream::StreamBuffer::kMaxCapacity) {
    throw std::invalid_argument("buffer_capacity must be <= 65535 (uint16 buffer positions)");
  }
  if (engine.pending_timeout <= 0.0) {
    throw std::invalid_argument("pending_timeout must be positive");
  }
  if (engine.tick_shard_size == 0) {
    throw std::invalid_argument("tick_shard_size must be >= 1");
  }
  if (engine.map_refresh_period == 0) {
    throw std::invalid_argument("map_refresh_period must be >= 1");
  }
  if (engine.token_bucket_burst < 1.0) {
    throw std::invalid_argument("token_bucket_burst must be >= 1");
  }
  // Catches negative CLI values wrapping through size_t; the engine clamps
  // plan lanes to the hardware anyway, so huge counts are never meaningful.
  if (engine.parallel_shards > 4096) {
    throw std::invalid_argument("parallel_shards out of range (0 = sequential, <= 4096)");
  }
  if (switch_times.front() < 0.0) {
    throw std::invalid_argument("first switch must be at t >= 0 (warm-up is t < 0)");
  }
  if (engine.flash_crowd_joins > 0 && engine.flash_crowd_duration < 0.0) {
    throw std::invalid_argument("flash_crowd_duration must be >= 0");
  }
  if (engine.cdn_assist) {
    if (engine.cdn_assist_rate <= 0.0) {
      throw std::invalid_argument("cdn_assist_rate must be positive");
    }
    if (engine.cdn_assist_latency_ms < 0.0) {
      throw std::invalid_argument("cdn_assist_latency_ms must be >= 0");
    }
    if (engine.cdn_assist_horizon < 0.0) {
      throw std::invalid_argument("cdn_assist_horizon must be >= 0");
    }
    if (engine.cdn_assist_resume_s < 0.0 ||
        engine.cdn_assist_pause_s < engine.cdn_assist_resume_s) {
      throw std::invalid_argument("need cdn_assist_pause_s >= cdn_assist_resume_s >= 0");
    }
  }
}

Config Config::paper_static(std::size_t node_count, AlgorithmKind algorithm, std::uint64_t seed) {
  Config config;
  config.node_count = node_count;
  config.algorithm = algorithm;
  config.seed = seed;
  config.engine.seed = seed;
  return config;
}

Config Config::paper_dynamic(std::size_t node_count, AlgorithmKind algorithm, std::uint64_t seed) {
  Config config = paper_static(node_count, algorithm, seed);
  config.enable_churn(0.05);
  return config;
}

}  // namespace gs::exp
