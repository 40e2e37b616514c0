#include "experiments/config.hpp"

#include <cmath>
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
  // Range checks on floating-point settings are written `!(x > bound)`:
  // NaN compares false against everything, so `x <= bound` would let it
  // through to a GS_CHECK deep in the engine.
  if (node_count < 3) throw std::invalid_argument("node_count must be >= 3");
  if (switch_times.empty()) throw std::invalid_argument("at least one switch required");
  for (std::size_t i = 1; i < switch_times.size(); ++i) {
    if (!(switch_times[i - 1] < switch_times[i])) {
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
  // Every time setting must also be finite: std::stod accepts "inf", and
  // an infinite event time reaches the timing wheel's double-to-int64
  // bucket cast, which is undefined (at best the run pops nothing and
  // reports all-zero metrics).
  for (const double t : switch_times) {
    if (!std::isfinite(t)) throw std::invalid_argument("switch_times must be finite");
  }
  if (!(engine.warmup > 0.0 && std::isfinite(engine.warmup))) {
    throw std::invalid_argument("warmup must be positive and finite");
  }
  // A non-positive horizon ends the run before the first switch.
  if (!(engine.horizon > 0.0 && std::isfinite(engine.horizon))) {
    throw std::invalid_argument("horizon must be positive and finite");
  }
  // Negative values would wrap through llround -> size_t into a huge
  // history or per-period join count, and fractions above 1 compound the
  // swarm every period; the engine cannot run either to its horizon.
  if (!(engine.history_seconds >= 0.0 && std::isfinite(engine.history_seconds))) {
    throw std::invalid_argument("history_seconds must be >= 0 and finite");
  }
  for (const double fraction : {engine.churn_leave_fraction, engine.churn_join_fraction}) {
    if (!(fraction >= 0.0 && fraction <= 1.0)) {
      throw std::invalid_argument("churn fractions must be in [0, 1]");
    }
  }
  // Joiners draw their ping from a Pareto with this minimum and shape,
  // capped at join_ping_cap_ms: a NaN shape reaches the simulator as a NaN
  // delay, a shape <= 0 puts every draw at the cap or below the minimum,
  // and std::min ignores a NaN cap.
  if (!(engine.join_ping_min_ms > 0.0)) {
    throw std::invalid_argument("join_ping_min_ms must be positive");
  }
  if (!(engine.join_ping_shape > 0.0)) {
    throw std::invalid_argument("join_ping_shape must be positive");
  }
  if (!(engine.join_ping_cap_ms >= engine.join_ping_min_ms)) {
    throw std::invalid_argument("join_ping_cap_ms must be >= join_ping_min_ms");
  }
  // The warm start seeds each playback cursor `lag` segments behind the
  // head: a negative lag puts it past the head, and NaN goes through
  // llround and censors every peer.
  for (const double lag :
       {engine.stable_backlog_scale, engine.base_lag_segments, engine.hop_lag_seconds}) {
    if (!(lag >= 0.0)) {
      throw std::invalid_argument(
          "stable_backlog_scale, base_lag_segments and hop_lag_seconds must be >= 0");
    }
  }
  if (!std::isfinite(engine.stable_backlog_exponent)) {
    throw std::invalid_argument("stable_backlog_exponent must be finite");
  }
  if (!(engine.sparse_fill >= 0.0 && engine.sparse_fill <= 1.0)) {
    throw std::invalid_argument("sparse_fill must be in [0, 1]");
  }
  // The reservation is round(fraction * budget) fresh picks: NaN rounds to
  // a huge count, which switches diversity off, and a fraction above 1
  // reserves more picks than the budget holds, so whether any fresh pick
  // happens depends on the candidate count.
  const double diversity = priority.diversity_fraction;
  if (!(diversity >= 0.0 && diversity <= 1.0)) {
    throw std::invalid_argument("priority.diversity_fraction must be in [0, 1]");
  }
  if (!(engine.tau > 0.0 && std::isfinite(engine.tau))) {
    throw std::invalid_argument("tau must be positive and finite");
  }
  if (!(engine.playback_rate > 0.0)) {
    throw std::invalid_argument("playback_rate must be positive");
  }
  // A source that cannot send leaves the swarm without a stream.
  if (!(engine.source_outbound > 0.0)) {
    throw std::invalid_argument("source_outbound must be positive");
  }
  // The fast switch's rate split requires Q > 0.
  if (engine.q_consecutive == 0) throw std::invalid_argument("q_consecutive must be >= 1");
  // A peer counts as prepared when its last missing startup segment
  // arrives; with Qs = 0 none is ever missing, so every peer is censored.
  if (engine.q_startup == 0) throw std::invalid_argument("q_startup must be >= 1");
  if (engine.buffer_capacity < engine.q_startup) {
    throw std::invalid_argument("buffer_capacity must hold the q_startup prefix");
  }
  if (engine.buffer_capacity > stream::StreamBuffer::kMaxCapacity) {
    throw std::invalid_argument("buffer_capacity must be <= 65535 (uint16 buffer positions)");
  }
  if (!(engine.pending_timeout > 0.0)) {
    throw std::invalid_argument("pending_timeout must be positive");
  }
  // A negative horizon rejects every request; NaN accepts any backlog.
  if (!(engine.accept_horizon >= 0.0)) {
    throw std::invalid_argument("accept_horizon must be >= 0");
  }
  // RateBudget holds at least one period of inbound budget (1 = the
  // paper's use-it-or-lose-it model).
  if (!(engine.budget_carry >= 1.0)) {
    throw std::invalid_argument("budget_carry must be >= 1");
  }
  if (engine.tick_shard_size == 0) {
    throw std::invalid_argument("tick_shard_size must be >= 1");
  }
  if (engine.map_refresh_period == 0) {
    throw std::invalid_argument("map_refresh_period must be >= 1");
  }
  if (!(engine.token_bucket_burst >= 1.0)) {
    throw std::invalid_argument("token_bucket_burst must be >= 1");
  }
  // Catches negative CLI values wrapping through size_t; the engine clamps
  // plan lanes to the hardware anyway, so huge counts are never meaningful.
  if (engine.parallel_shards > 4096) {
    throw std::invalid_argument("parallel_shards out of range (0 = sequential, <= 4096)");
  }
  if (!(switch_times.front() >= 0.0)) {
    throw std::invalid_argument("first switch must be at t >= 0 (warm-up is t < 0)");
  }
  if (engine.flash_crowd_joins > 0) {
    // An infinite duration paces the crowd at zero joins per period: the
    // pump runs to the horizon and admits nobody.
    if (!(engine.flash_crowd_duration >= 0.0 && std::isfinite(engine.flash_crowd_duration))) {
      throw std::invalid_argument("flash_crowd_duration must be >= 0 and finite");
    }
    // The admission pump is scheduled at its first join time, which the
    // simulator cannot reach before the run starts at -warmup.
    if (!(switch_times.front() + engine.flash_crowd_start >= -engine.warmup &&
          std::isfinite(engine.flash_crowd_start))) {
      throw std::invalid_argument("flash crowd must start at a finite time at or after -warmup");
    }
  }
  if (engine.cdn_assist) {
    if (!(engine.cdn_assist_rate > 0.0)) {
      throw std::invalid_argument("cdn_assist_rate must be positive");
    }
    if (!(engine.cdn_assist_latency_ms >= 0.0 && std::isfinite(engine.cdn_assist_latency_ms))) {
      throw std::invalid_argument("cdn_assist_latency_ms must be >= 0 and finite");
    }
    if (!(engine.cdn_assist_horizon >= 0.0)) {
      throw std::invalid_argument("cdn_assist_horizon must be >= 0");
    }
    if (!(engine.cdn_assist_resume_s >= 0.0 &&
          engine.cdn_assist_pause_s >= engine.cdn_assist_resume_s)) {
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
