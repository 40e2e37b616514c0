// Experiment configuration with the paper's §5.1 defaults.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/priority.hpp"
#include "stream/engine.hpp"

namespace gs::exp {

enum class TopologyKind : std::uint8_t {
  kSyntheticTrace,  ///< Gnutella-crawl-like (power-law + pings); the default
  kPreferential,    ///< raw preferential attachment
  kErdosRenyi,
  kWattsStrogatz,
  kRing,
  kTraceFile,  ///< load a trace file (path in `trace_path`)
};

enum class AlgorithmKind : std::uint8_t {
  kFast,    ///< the paper's Algorithm 1
  kNormal,  ///< strict S1-first baseline
};

[[nodiscard]] std::string_view to_string(TopologyKind kind) noexcept;
[[nodiscard]] std::string_view to_string(AlgorithmKind kind) noexcept;
// SupplierCapacityModel's to_string lives with the enum in
// stream/transfer_plane.hpp (found via ADL).
[[nodiscard]] AlgorithmKind algorithm_from_string(std::string_view name);
[[nodiscard]] TopologyKind topology_from_string(std::string_view name);
[[nodiscard]] stream::SupplierCapacityModel capacity_from_string(std::string_view name);

struct Config {
  std::size_t node_count = 1000;
  TopologyKind topology = TopologyKind::kSyntheticTrace;
  std::string trace_path;          ///< for kTraceFile
  std::size_t neighbor_target = 5; ///< M: repair/maintenance degree

  stream::EngineConfig engine{};   ///< paper defaults (tau, p, B, Q, Qs, ...)
  AlgorithmKind algorithm = AlgorithmKind::kFast;
  core::PriorityParams priority{};

  /// Serial sources: k switches need k+1 sources.  Defaults to the paper's
  /// single switch at t = 0.
  std::vector<double> switch_times = {0.0};

  std::uint64_t seed = 1;

  [[nodiscard]] std::size_t source_count() const noexcept { return switch_times.size() + 1; }

  /// Applies the paper's dynamic-environment churn (5% leave + 5% join per
  /// scheduling period).
  void enable_churn(double fraction = 0.05) {
    engine.churn_leave_fraction = fraction;
    engine.churn_join_fraction = fraction;
  }

  /// Turns on the CDN-assisted fast switch (`--cdn-assist`): a capacity-
  /// limited patch source bursts the head of the new session to switching
  /// peers and hands off once their gossip suppliers cover the window.
  /// Unlike the mechanism options above this changes dynamics *by design*
  /// (that is the point of the assist); with it off the plane is never
  /// constructed and fixed-seed metrics stay bit-identical.  Tune via
  /// engine.cdn_assist_* (rate, latency, pause/resume leads, span).
  void enable_cdn_assist(bool on = true) { engine.cdn_assist = on; }

  /// Configures the flash-crowd scenario (`--flash-crowd-joins`): `joins`
  /// extra peers admitted at a uniform pace over `duration` seconds
  /// starting `start` seconds after the first switch.
  void enable_flash_crowd(std::size_t joins, double start = 0.5, double duration = 2.0) {
    engine.flash_crowd_joins = joins;
    engine.flash_crowd_start = start;
    engine.flash_crowd_duration = duration;
  }

  /// Throws std::invalid_argument on inconsistent settings.
  void validate() const;

  /// The paper's static-environment setup at a given scale.
  [[nodiscard]] static Config paper_static(std::size_t node_count, AlgorithmKind algorithm,
                                           std::uint64_t seed = 1);
  /// The paper's dynamic-environment setup (5%/5% churn per period).
  [[nodiscard]] static Config paper_dynamic(std::size_t node_count, AlgorithmKind algorithm,
                                            std::uint64_t seed = 1);
};

}  // namespace gs::exp
