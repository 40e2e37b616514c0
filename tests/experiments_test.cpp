// Config validation/defaults, scenario building, runner comparisons.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/config.hpp"
#include "experiments/report.hpp"
#include "experiments/runner.hpp"
#include "experiments/scenario.hpp"
#include "experiments/settings.hpp"
#include "util/flags.hpp"

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
  // An infinite rate sizes the warm start's history through llround: the
  // run dies of std::bad_alloc.
  config.engine.playback_rate = std::numeric_limits<double>::infinity();
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
  // An infinite minimum (with a cap to match) gives every joiner an
  // infinite delay: the run tracks no peer.
  config.engine.join_ping_min_ms = std::numeric_limits<double>::infinity();
  config.engine.join_ping_cap_ms = std::numeric_limits<double>::infinity();
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.engine.join_ping_cap_ms = 800.0;
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
    // An infinite lag goes through llround too.
    for (const double lag : {-50.0, kNaN, std::numeric_limits<double>::infinity()}) {
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

// urgency() clamps to the cap with std::min, which passes a NaN cap
// through to every priority (the run pops three times the events).
TEST(Config, RejectsNonPositiveOrNaNUrgencyCap) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  for (const double cap : {0.0, -1.0, kNaN, std::numeric_limits<double>::infinity()}) {
    config.priority.urgency_cap = cap;
    EXPECT_THROW(config.validate(), std::invalid_argument) << cap;
  }
  config.priority.urgency_cap = 1.0;
  EXPECT_NO_THROW(config.validate());
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

// Finite but huge times overflow the timing wheel's int64 bucket index
// (|t| / tau >= 2^53): each setting that places an event directly is
// rejected by name.
TEST(Config, RejectsEventTimesPastTheWheelRange) {
  const auto rejects = [](const Config& config, const std::string& field) {
    try {
      config.validate();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what()).find(field) != std::string::npos;
    }
    return false;
  };
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  config.engine.warmup = 1e19;
  EXPECT_TRUE(rejects(config, "warmup"));

  config = Config::paper_static(100, AlgorithmKind::kFast);
  config.engine.horizon = 1e19;
  EXPECT_TRUE(rejects(config, "horizon"));
  config.engine.horizon = 1e12;
  EXPECT_NO_THROW(config.validate());
  config.engine.tau = 1e-4;  // the same horizon is 1e16 quanta now
  EXPECT_TRUE(rejects(config, "horizon"));

  config = Config::paper_static(100, AlgorithmKind::kFast);
  config.switch_times = {0.0, 1e19};
  EXPECT_TRUE(rejects(config, "horizon"));

  config = Config::paper_static(100, AlgorithmKind::kFast);
  config.enable_flash_crowd(5, 1e19);
  EXPECT_TRUE(rejects(config, "flash_crowd_start"));
  config.enable_flash_crowd(5, 0.5, 1e19);
  EXPECT_TRUE(rejects(config, "flash_crowd_duration"));
  config.enable_flash_crowd(5, 0.5, 2.0);
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

// ---------------------------------------------------------- settings ---

/// Parses `args` (program name first) into `config` through the setting
/// flags, as every CLI does.
void parse_into(Config& config, std::vector<std::string> args) {
  util::Flags flags;
  define_settings(flags, config);
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  ASSERT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  read_settings(flags, config);
}

/// Every row's value as flag text: equal texts mean equal fields (reals
/// print in their shortest round-trip form).
std::vector<std::string> texts(const Config& config) {
  std::vector<std::string> out;
  for (const Setting& setting : settings()) out.push_back(setting.text(config));
  return out;
}

Config cold_recipe() {
  Config config = Config::paper_dynamic(300, AlgorithmKind::kNormal, 7);
  config.engine.warm_start = false;
  config.engine.warmup = 40.0;
  return config;
}

TEST(Settings, EmptyArgvLeavesRecipesUnchanged) {
  for (const Config& recipe : {Config::paper_static(100, AlgorithmKind::kFast),
                               Config::paper_dynamic(100, AlgorithmKind::kFast), cold_recipe()}) {
    Config config = recipe;
    parse_into(config, {"prog"});
    EXPECT_EQ(texts(config), texts(recipe));
    // Restating every default changes nothing either: the text round-trips.
    std::vector<std::string> args = {"prog"};
    for (const Setting& setting : settings()) {
      args.push_back("--" + std::string(setting.flag) + "=" + setting.text(recipe));
    }
    parse_into(config, args);
    EXPECT_EQ(texts(config), texts(recipe));
  }
}

TEST(Settings, OneFlagSetsExactlyItsOwnField) {
  const Config recipe = Config::paper_static(100, AlgorithmKind::kFast);
  const std::vector<std::string> before = texts(recipe);
  const std::map<std::string_view, std::string> choices = {{"topology", "ring"},
                                                           {"algorithm", "normal"},
                                                           {"capacity-model", "per-link"},
                                                           {"trace", "overlay.trace"}};
  const auto rows = settings();
  for (const Setting& setting : rows) {
    const std::string old = setting.text(recipe);
    std::string value;
    switch (setting.kind) {
      case Setting::Kind::kReal:
        value = old == "0.5" ? "0.25" : "0.5";
        break;
      case Setting::Kind::kCount:
        value = old == "7" ? "8" : "7";
        break;
      case Setting::Kind::kSwitch:
        value = old == "true" ? "false" : "true";
        break;
      case Setting::Kind::kChoice:
      case Setting::Kind::kText:
        ASSERT_TRUE(choices.contains(setting.flag)) << "no test value for --" << setting.flag;
        value = choices.at(setting.flag);
        break;
    }
    Config config = recipe;
    parse_into(config, {"prog", "--" + std::string(setting.flag) + "=" + value});
    const std::vector<std::string> after = texts(config);
    for (std::size_t j = 0; j < rows.size(); ++j) {
      if (rows[j].flag == setting.flag) {
        EXPECT_EQ(after[j], value) << "--" << setting.flag;
      } else {
        EXPECT_EQ(after[j], before[j]) << "--" << setting.flag << " moved --" << rows[j].flag;
      }
    }
  }
}

TEST(Settings, HelpListsEveryRowWithTheRecipesValue) {
  const Config recipe = cold_recipe();
  util::Flags flags;
  define_settings(flags, recipe);
  const std::string help = flags.usage("prog");
  for (const Setting& setting : settings()) {
    const std::string entry =
        "  --" + std::string(setting.flag) + " (default: " + setting.text(recipe) + ")";
    EXPECT_NE(help.find(entry), std::string::npos) << entry;
  }
  // A flag the caller owns is left out.
  util::Flags sweep;
  define_settings(sweep, recipe, {"nodes", "algorithm"});
  EXPECT_EQ(sweep.usage("prog").find("--nodes "), std::string::npos);
  EXPECT_NE(sweep.usage("prog").find("--neighbor "), std::string::npos);
}

TEST(Settings, EveryRealRowRejectsNaNAndInfinity) {
  for (const Setting& setting : settings()) {
    if (setting.kind != Setting::Kind::kReal) continue;
    for (const char* value : {"nan", "inf", "-inf"}) {
      Config config = Config::paper_static(100, AlgorithmKind::kFast);
      parse_into(config, {"prog", "--" + std::string(setting.flag) + "=" + value});
      EXPECT_THROW(config.validate(), std::invalid_argument) << setting.flag << "=" << value;
    }
  }
}

TEST(Settings, NegativeCountIsRejectedAtParse) {
  Config config = Config::paper_static(100, AlgorithmKind::kFast);
  EXPECT_THROW(parse_into(config, {"prog", "--parallel-shards=-1"}), std::runtime_error);
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
