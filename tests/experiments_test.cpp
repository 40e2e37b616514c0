// Config validation/defaults, scenario building, runner comparisons.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <stdexcept>

#include "experiments/config.hpp"
#include "experiments/report.hpp"
#include "experiments/runner.hpp"
#include "experiments/scenario.hpp"

namespace gs::exp {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(Config, PaperDefaultsMatchTable) {
  // Table 1/2 and S5.1 parameters.
  const Config config = Config::paper_static(1000, AlgorithmKind::kFast);
  EXPECT_DOUBLE_EQ(config.engine.tau, 1.0);
  EXPECT_DOUBLE_EQ(config.engine.playback_rate, 10.0);
  EXPECT_EQ(config.engine.buffer_capacity, 600u);
  EXPECT_EQ(config.engine.q_consecutive, 10u);
  EXPECT_EQ(config.engine.q_startup, 50u);
  EXPECT_EQ(config.neighbor_target, 5u);
  EXPECT_NEAR(config.engine.inbound.mean(), 15.0, 1e-9);
  EXPECT_NEAR(config.engine.inbound.min(), 10.0, 1e-9);
  EXPECT_EQ(config.engine.wire.buffer_map_bits(), 620u);
  EXPECT_EQ(config.engine.wire.data_bits(), 30u * 1024u);
  EXPECT_EQ(config.switch_times.size(), 1u);
  EXPECT_EQ(config.source_count(), 2u);
  EXPECT_DOUBLE_EQ(config.engine.churn_leave_fraction, 0.0);
}

TEST(Config, PaperDynamicChurn) {
  const Config config = Config::paper_dynamic(500, AlgorithmKind::kNormal);
  EXPECT_DOUBLE_EQ(config.engine.churn_leave_fraction, 0.05);
  EXPECT_DOUBLE_EQ(config.engine.churn_join_fraction, 0.05);
}

TEST(Config, ValidationErrors) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.switch_times = {};
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = Config::paper_static(100, AlgorithmKind::kFast);
  config.switch_times = {0.0, 0.0};
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.switch_times = {kNaN};
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.switch_times = {0.0, kNaN};
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = Config::paper_static(2, AlgorithmKind::kFast);
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = Config::paper_static(100, AlgorithmKind::kFast);
  config.topology = TopologyKind::kTraceFile;
  EXPECT_THROW(config.validate(), std::invalid_argument) << "missing trace path";
}

// Settings the engine cannot honour: a non-advancing scheduling period or
// playback clock, a buffer that cannot hold the startup prefix, and
// requests that retry the instant they are issued.  NaN compares false
// against every bound, so each range check must reject it too.
TEST(Config, RejectsNonPositiveTau) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.engine.tau = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.engine.tau = -1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.engine.tau = kNaN;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Config, RejectsNonPositivePlaybackRate) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.engine.playback_rate = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.engine.playback_rate = kNaN;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Config, RejectsNonPositiveWarmup) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.engine.warmup = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.engine.warmup = kNaN;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

// A source that never sends leaves the swarm without a stream, yet the run
// would still complete and report a bogus overhead ratio.
TEST(Config, RejectsNonPositiveSourceOutbound) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  for (const double rate : {0.0, -5.0, kNaN}) {
    config.engine.source_outbound = rate;
    EXPECT_THROW(config.validate(), std::invalid_argument) << rate;
  }
  config.engine.source_outbound = 0.5;
  EXPECT_NO_THROW(config.validate());
}

// The fast switch's rate split requires Q > 0.
TEST(Config, RejectsZeroConsecutivePlaybackSegments) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.engine.q_consecutive = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.engine.q_consecutive = 1;
  EXPECT_NO_THROW(config.validate());
}

TEST(Config, RejectsTokenBucketBurstBelowOne) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.engine.token_bucket_burst = 0.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.engine.token_bucket_burst = kNaN;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.engine.token_bucket_burst = 1.0;
  EXPECT_NO_THROW(config.validate());
}

TEST(Config, RejectsNaNCdnAssistSettings) {
  const Config valid = [] {
    Config config = Config::paper_static(100, AlgorithmKind::kFast);
    config.enable_cdn_assist();
    return config;
  }();
  EXPECT_NO_THROW(valid.validate());
  for (double stream::EngineConfig::*field :
       {&stream::EngineConfig::cdn_assist_rate, &stream::EngineConfig::cdn_assist_latency_ms,
        &stream::EngineConfig::cdn_assist_horizon, &stream::EngineConfig::cdn_assist_pause_s,
        &stream::EngineConfig::cdn_assist_resume_s}) {
    Config config = valid;
    config.engine.*field = kNaN;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
}

// The flash crowd's admission pump cannot be scheduled before the run
// starts at -warmup, and a NaN duration would admit the whole crowd at once.
TEST(Config, RejectsFlashCrowdBeforeRunStart) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.enable_flash_crowd(10, -10.0);
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.enable_flash_crowd(10, kNaN);
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.enable_flash_crowd(10, 0.5, kNaN);
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.enable_flash_crowd(10, -config.engine.warmup);
  EXPECT_NO_THROW(config.validate());
}

TEST(Config, RejectsBufferSmallerThanStartupPrefix) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.engine.buffer_capacity = config.engine.q_startup - 1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.engine.buffer_capacity = config.engine.q_startup;
  EXPECT_NO_THROW(config.validate());
}

// Buffer positions are distances between uint16 insertion stamps.
TEST(Config, RejectsBufferBeyondUint16Positions) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.engine.buffer_capacity = 65536;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.engine.buffer_capacity = 65535;
  EXPECT_NO_THROW(config.validate());
}

TEST(Config, RejectsNonPositivePendingTimeout) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.engine.pending_timeout = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.engine.pending_timeout = kNaN;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

// A negative history wraps through llround -> size_t into a huge warm-start
// segment count.
TEST(Config, RejectsNegativeHistorySeconds) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.engine.history_seconds = -5.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.engine.history_seconds = 0.0;
  EXPECT_NO_THROW(config.validate());
}

// A negative join fraction wraps into a huge per-period join count; one
// above 1 compounds the swarm every period.
TEST(Config, RejectsChurnFractionsOutsideUnitInterval) {
  Config config = Config::paper_dynamic(100, AlgorithmKind::kFast);
  config.engine.churn_join_fraction = -0.05;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.engine.churn_join_fraction = 3.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.engine.churn_join_fraction = 0.05;
  config.engine.churn_leave_fraction = -0.05;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.engine.churn_leave_fraction = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.enable_churn(1.0);
  EXPECT_NO_THROW(config.validate());
}

// A non-positive horizon ends the run before the switch (nothing tracked).
TEST(Config, RejectsNonPositiveHorizon) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  for (const double horizon : {0.0, -5.0, kNaN}) {
    config.engine.horizon = horizon;
    EXPECT_THROW(config.validate(), std::invalid_argument) << horizon;
  }
  config.engine.horizon = 1.0;
  EXPECT_NO_THROW(config.validate());
}

// RateBudget cannot bank less than one period of inbound budget.
TEST(Config, RejectsBudgetCarryBelowOne) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  for (const double carry : {0.0, 0.5, kNaN}) {
    config.engine.budget_carry = carry;
    EXPECT_THROW(config.validate(), std::invalid_argument) << carry;
  }
  config.engine.budget_carry = 1.0;
  EXPECT_NO_THROW(config.validate());
}

// Joiners draw their ping from a Pareto whose minimum must be positive.
TEST(Config, RejectsNonPositiveJoinPingMinimum) {
  Config config = Config::paper_dynamic(100, AlgorithmKind::kFast);
  for (const double ping : {0.0, -10.0, kNaN}) {
    config.engine.join_ping_min_ms = ping;
    EXPECT_THROW(config.validate(), std::invalid_argument) << ping;
  }
  config.engine.join_ping_min_ms = 1.0;
  EXPECT_NO_THROW(config.validate());
}

// A NaN shape aborts a dynamic run in the simulator (NaN event delay); a
// shape <= 0 puts every joiner at the cap or below the minimum.
TEST(Config, RejectsNonPositiveOrNaNJoinPingShape) {
  Config config = Config::paper_dynamic(100, AlgorithmKind::kFast);
  for (const double shape : {0.0, -1.6, kNaN}) {
    config.engine.join_ping_shape = shape;
    EXPECT_THROW(config.validate(), std::invalid_argument) << shape;
  }
  config.engine.join_ping_shape = 0.5;
  EXPECT_NO_THROW(config.validate());
}

// std::min(draw, NaN) returns the draw, so a NaN cap was silently ignored.
TEST(Config, RejectsJoinPingCapBelowMinimumOrNaN) {
  Config config = Config::paper_dynamic(100, AlgorithmKind::kFast);
  for (const double cap : {config.engine.join_ping_min_ms - 1.0, -800.0, kNaN}) {
    config.engine.join_ping_cap_ms = cap;
    EXPECT_THROW(config.validate(), std::invalid_argument) << cap;
  }
  config.engine.join_ping_cap_ms = config.engine.join_ping_min_ms;
  EXPECT_NO_THROW(config.validate());
}

// The warm start's initial lag: a negative one seeds playback cursors past
// the head; NaN goes through llround and censors every peer.
TEST(Config, RejectsNegativeOrNaNWarmStartLag) {
  const Config valid = Config::paper_static(100, AlgorithmKind::kFast);
  for (double stream::EngineConfig::*field :
       {&stream::EngineConfig::stable_backlog_scale, &stream::EngineConfig::base_lag_segments,
        &stream::EngineConfig::hop_lag_seconds}) {
    for (const double lag : {-50.0, kNaN}) {
      Config config = valid;
      config.engine.*field = lag;
      EXPECT_THROW(config.validate(), std::invalid_argument) << lag;
    }
    Config config = valid;
    config.engine.*field = 0.0;
    EXPECT_NO_THROW(config.validate());
  }
  for (const double exponent : {kNaN, std::numeric_limits<double>::infinity()}) {
    Config config = valid;
    config.engine.stable_backlog_exponent = exponent;
    EXPECT_THROW(config.validate(), std::invalid_argument) << exponent;
  }
}

// sparse_fill is a coverage probability; above 1 it distorts the switch
// time, and NaN censors every peer.
TEST(Config, RejectsSparseFillOutsideUnitInterval) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  for (const double fill : {-0.1, 2.0, kNaN}) {
    config.engine.sparse_fill = fill;
    EXPECT_THROW(config.validate(), std::invalid_argument) << fill;
  }
  for (const double fill : {0.0, 1.0}) {
    config.engine.sparse_fill = fill;
    EXPECT_NO_THROW(config.validate()) << fill;
  }
}

// The diversity reservation is round(fraction * budget) fresh picks: NaN
// rounds to a huge count (diversity silently off), and above 1 the picks
// outnumber the budget.
TEST(Config, RejectsDiversityFractionOutsideUnitIntervalOrNaN) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  for (const double fraction : {-0.1, 1.5, kNaN}) {
    config.priority.diversity_fraction = fraction;
    EXPECT_THROW(config.validate(), std::invalid_argument) << fraction;
  }
  for (const double fraction : {0.0, 1.0}) {
    config.priority.diversity_fraction = fraction;
    EXPECT_NO_THROW(config.validate()) << fraction;
  }
}

// A peer is prepared when its last missing startup segment arrives; with
// Qs = 0 none is ever missing, so every peer would be censored.
TEST(Config, RejectsZeroStartupPrefix) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.engine.q_startup = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.engine.q_startup = 1;
  EXPECT_NO_THROW(config.validate());
}

// A negative accept horizon rejects every request; NaN accepts any backlog.
TEST(Config, RejectsNegativeAcceptHorizon) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  for (const double horizon : {-1.0, kNaN}) {
    config.engine.accept_horizon = horizon;
    EXPECT_THROW(config.validate(), std::invalid_argument) << horizon;
  }
  config.engine.accept_horizon = 0.0;
  EXPECT_NO_THROW(config.validate());
}

// Time settings must be finite: the CLI parses them with std::stod, which
// accepts "inf", and an infinite event time reaches the timing wheel's
// double-to-int64 bucket cast.  One case per field.
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Config, RejectsInfiniteWarmup) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.engine.warmup = kInf;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Config, RejectsInfiniteHorizon) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.engine.horizon = kInf;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Config, RejectsInfiniteTau) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.engine.tau = kInf;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Config, RejectsInfiniteHistorySeconds) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.engine.history_seconds = kInf;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Config, RejectsInfiniteSwitchTimes) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.switch_times = {kInf};
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.switch_times = {0.0, kInf};
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.switch_times = {0.0, 60.0};
  EXPECT_NO_THROW(config.validate());
}

TEST(Config, RejectsInfiniteFlashCrowdStart) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.enable_flash_crowd(5, kInf);
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.enable_flash_crowd(5, 0.5);
  EXPECT_NO_THROW(config.validate());
}

TEST(Config, RejectsInfiniteFlashCrowdDuration) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.enable_flash_crowd(5, 0.5, kInf);
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.enable_flash_crowd(5, 0.5, 2.0);
  EXPECT_NO_THROW(config.validate());
}

TEST(Config, RejectsInfiniteCdnAssistLatency) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.enable_cdn_assist();
  config.engine.cdn_assist_latency_ms = kInf;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.engine.cdn_assist_latency_ms = 40.0;
  EXPECT_NO_THROW(config.validate());
}

TEST(Config, EnumStringRoundTrip) {
  EXPECT_EQ(algorithm_from_string("fast"), AlgorithmKind::kFast);
  EXPECT_EQ(algorithm_from_string("normal"), AlgorithmKind::kNormal);
  EXPECT_THROW((void)algorithm_from_string("bogus"), std::invalid_argument);
  EXPECT_EQ(topology_from_string(std::string(to_string(TopologyKind::kSyntheticTrace))),
            TopologyKind::kSyntheticTrace);
  EXPECT_EQ(topology_from_string("ring"), TopologyKind::kRing);
  EXPECT_EQ(capacity_from_string("shared-fifo"), stream::SupplierCapacityModel::kSharedFifo);
  EXPECT_EQ(capacity_from_string("per-link"), stream::SupplierCapacityModel::kPerLink);
  EXPECT_EQ(capacity_from_string(std::string(to_string(stream::SupplierCapacityModel::kPerLink))),
            stream::SupplierCapacityModel::kPerLink);
  EXPECT_THROW((void)capacity_from_string("bogus"), std::invalid_argument);
}

TEST(Scenario, BuildsRepairedOverlay) {
  const Config config = Config::paper_static(300, AlgorithmKind::kFast, 5);
  const BuiltScenario scenario = build_scenario(config);
  EXPECT_EQ(scenario.graph.node_count(), 300u);
  EXPECT_EQ(scenario.latency.node_count(), 300u);
  // Paper: "add random edges ... to let every node hold M=5 connected
  // neighbors".
  for (net::NodeId v = 0; v < scenario.graph.node_count(); ++v) {
    EXPECT_GE(scenario.graph.degree(v), 5u);
  }
  ASSERT_EQ(scenario.sources.size(), 2u);
  EXPECT_NE(scenario.sources[0], scenario.sources[1]);
}

TEST(Scenario, DeterministicInSeed) {
  const Config config = Config::paper_static(200, AlgorithmKind::kFast, 11);
  const BuiltScenario a = build_scenario(config);
  const BuiltScenario b = build_scenario(config);
  EXPECT_EQ(a.graph.edge_count(), b.graph.edge_count());
  EXPECT_EQ(a.sources, b.sources);
  for (net::NodeId v = 0; v < a.graph.node_count(); ++v) {
    EXPECT_DOUBLE_EQ(a.latency.ping_ms(v), b.latency.ping_ms(v));
  }
}

TEST(Scenario, AllTopologyKindsBuild) {
  for (const TopologyKind kind :
       {TopologyKind::kSyntheticTrace, TopologyKind::kPreferential, TopologyKind::kErdosRenyi,
        TopologyKind::kWattsStrogatz, TopologyKind::kRing}) {
    Config config = Config::paper_static(120, AlgorithmKind::kFast, 3);
    config.topology = kind;
    const BuiltScenario scenario = build_scenario(config);
    EXPECT_EQ(scenario.graph.node_count(), 120u) << to_string(kind);
    EXPECT_GE(scenario.graph.min_degree(
                  [&] {
                    std::vector<net::NodeId> ids(scenario.graph.node_count());
                    for (net::NodeId v = 0; v < ids.size(); ++v) ids[v] = v;
                    return ids;
                  }()),
              5u);
  }
}

TEST(Scenario, StrategyFactory) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  EXPECT_EQ(make_strategy(config)->name(), "fast");
  config.algorithm = AlgorithmKind::kNormal;
  EXPECT_EQ(make_strategy(config)->name(), "normal");
}

TEST(Runner, RunOnceCompletes) {
  const Config config = Config::paper_static(80, AlgorithmKind::kFast, 2);
  const RunResult result = run_once(config);
  ASSERT_EQ(result.switches.size(), 1u);
  EXPECT_EQ(result.primary().prepared_s2, result.primary().tracked);
  EXPECT_GT(result.wall_seconds, 0.0);
}

TEST(Runner, ComparisonPointPaired) {
  const Config base = Config::paper_static(80, AlgorithmKind::kFast, 5);
  const ComparisonPoint point = compare_at_size(base, 80, 2);
  EXPECT_EQ(point.node_count, 80u);
  EXPECT_EQ(point.trials, 2u);
  EXPECT_GT(point.fast_switch_time, 0.0);
  EXPECT_GT(point.normal_switch_time, 0.0);
  EXPECT_GT(point.fast_overhead, 0.0);
  // Reduction is (normal - fast)/normal of the stored means.
  EXPECT_NEAR(point.reduction(),
              (point.normal_switch_time - point.fast_switch_time) / point.normal_switch_time,
              1e-12);
}

TEST(Runner, SweepProducesOnePointPerSize) {
  const Config base = Config::paper_static(80, AlgorithmKind::kFast, 7);
  const auto points = sweep_sizes(base, {40, 80}, 1);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].node_count, 40u);
  EXPECT_EQ(points[1].node_count, 80u);
}

TEST(Runner, PaperSizesAxis) {
  const auto sizes = paper_sizes();
  ASSERT_EQ(sizes.size(), 6u);
  EXPECT_EQ(sizes.front(), 100u);
  EXPECT_EQ(sizes.back(), 8000u);
}

TEST(Report, CsvOutputs) {
  const Config base = Config::paper_static(60, AlgorithmKind::kFast, 9);
  const auto points = sweep_sizes(base, {60}, 1);
  const std::string path = std::string(::testing::TempDir()) + "/cmp.csv";
  write_comparison_csv(path, points);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("reduction"), std::string::npos);
  std::string row;
  EXPECT_TRUE(static_cast<bool>(std::getline(in, row)));
}

}  // namespace
}  // namespace gs::exp
