#include "experiments/config.hpp"

#include <cmath>
#include <stdexcept>

#include "experiments/settings.hpp"

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
  check_ranges(*this);
  // Cross-field checks.  check_ranges has made every scalar finite; the
  // switch times are `!(a < b)` so that NaN fails.
  if (switch_times.empty()) throw std::invalid_argument("at least one switch required");
  for (std::size_t i = 1; i < switch_times.size(); ++i) {
    if (!(switch_times[i - 1] < switch_times[i])) {
      throw std::invalid_argument("switch_times must be strictly increasing");
    }
  }
  // An infinite event time reaches the timing wheel's double-to-int64
  // bucket cast, which is undefined.
  for (const double t : switch_times) {
    if (!std::isfinite(t)) throw std::invalid_argument("switch_times must be finite");
  }
  if (!(switch_times.front() >= 0.0)) {
    throw std::invalid_argument("first switch must be at t >= 0 (warm-up is t < 0)");
  }
  if (source_count() >= node_count) throw std::invalid_argument("more sources than nodes");
  if (neighbor_target >= node_count) {
    throw std::invalid_argument("neighbor_target must be in [1, node_count)");
  }
  if (topology == TopologyKind::kTraceFile && trace_path.empty()) {
    throw std::invalid_argument("trace_path required for kTraceFile");
  }
  if (engine.buffer_capacity < engine.q_startup) {
    throw std::invalid_argument("buffer_capacity must hold the q_startup prefix");
  }
  // A cap below the minimum puts every joiner's ping at the cap.
  if (engine.join_ping_cap_ms < engine.join_ping_min_ms) {
    throw std::invalid_argument("join_ping_cap_ms must be >= join_ping_min_ms");
  }
  // The admission pump is scheduled at its first join time, which the
  // simulator cannot reach before the run starts at -warmup.
  if (engine.flash_crowd_joins > 0 &&
      switch_times.front() + engine.flash_crowd_start < -engine.warmup) {
    throw std::invalid_argument("flash crowd must start at or after -warmup");
  }
  if (engine.cdn_assist && engine.cdn_assist_pause_s < engine.cdn_assist_resume_s) {
    throw std::invalid_argument("need cdn_assist_pause_s >= cdn_assist_resume_s");
  }
}

Config Config::paper_static(std::size_t node_count, AlgorithmKind algorithm, std::uint64_t seed) {
  Config config;
  config.node_count = node_count;
  config.algorithm = algorithm;
  config.seed = seed;
  return config;
}

Config Config::paper_dynamic(std::size_t node_count, AlgorithmKind algorithm, std::uint64_t seed) {
  Config config = paper_static(node_count, algorithm, seed);
  config.enable_churn(0.05);
  return config;
}

}  // namespace gs::exp
