#include "experiments/settings.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace gs::exp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Range kPositive{0.0, kInf, true};
constexpr Range kNonNegative{0.0};
constexpr Range kUnit{0.0, 1.0};
constexpr Range at_least(double min) { return {min}; }

template <class T>
constexpr Setting::Kind kind_of() {
  if constexpr (std::is_same_v<T, bool>) return Setting::Kind::kSwitch;
  if constexpr (std::is_same_v<T, double>) return Setting::Kind::kReal;
  if constexpr (std::is_enum_v<T>) return Setting::Kind::kChoice;
  if constexpr (std::is_integral_v<T>) return Setting::Kind::kCount;
  return Setting::Kind::kText;
}

template <class T>
std::string to_text(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_same_v<T, double>) {
    char buf[32];
    return {buf, std::to_chars(buf, buf + sizeof(buf), value).ptr};  // shortest round-trip
  } else if constexpr (std::is_enum_v<T>) {
    return std::string(to_string(value));
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(value);
  } else {
    return value;
  }
}

template <class T>
T from_flag(const util::Flags& flags, std::string_view flag) {
  if constexpr (std::is_same_v<T, bool>) {
    return flags.get_bool(flag);
  } else if constexpr (std::is_same_v<T, double>) {
    return flags.get_double(flag);
  } else if constexpr (std::is_same_v<T, TopologyKind>) {
    return topology_from_string(flags.get(flag));
  } else if constexpr (std::is_same_v<T, AlgorithmKind>) {
    return algorithm_from_string(flags.get(flag));
  } else if constexpr (std::is_same_v<T, stream::SupplierCapacityModel>) {
    return capacity_from_string(flags.get(flag));
  } else if constexpr (std::is_integral_v<T>) {
    // A negative count would wrap through the unsigned cast.
    const std::int64_t value = flags.get_int(flag);
    if (value < 0) throw std::runtime_error("flag --" + std::string(flag) + ": must be >= 0");
    return static_cast<T>(value);
  } else {
    return flags.get(flag);
  }
}

/// A row for the field `Access{}(config)`: Access is a captureless lambda
/// returning a reference to the field, so one expression serves reads of a
/// const Config and writes.
template <class Access>
constexpr Setting row(std::string_view flag, std::string_view help, Access, Range range = {}) {
  using T = std::remove_cvref_t<decltype(Access{}(std::declval<Config&>()))>;
  constexpr Setting::Kind kind = kind_of<T>();
  Setting setting{flag, help, kind, range, [](const Config& c) { return to_text(Access{}(c)); },
                  [](const util::Flags& flags, std::string_view name, Config& c) {
                    Access{}(c) = from_flag<T>(flags, name);
                  },
                  nullptr};
  if constexpr (kind == Setting::Kind::kReal || kind == Setting::Kind::kCount) {
    setting.number = [](const Config& c) { return static_cast<double>(Access{}(c)); };
  }
  return setting;
}

#define FIELD(path) [](auto& c) -> auto& { return c.path; }

// Every real setting must be finite: std::stod parses "inf" and "nan".  An
// infinite time reaches the timing wheel's double-to-int64 bucket cast, an
// infinite rate or lag goes through std::llround, and NaN compares false
// against every bound the engine relies on.
constexpr Setting kSettings[] = {
    row("nodes", "N: overlay size (peers)", FIELD(node_count), at_least(3)),
    row("topology", "synthetic-trace|preferential|erdos-renyi|watts-strogatz|ring|trace-file",
        FIELD(topology)),
    row("trace", "trace file path (for --topology trace-file)", FIELD(trace_path)),
    row("neighbor", "M: target neighbour count (< N)", FIELD(neighbor_target), at_least(1)),
    row("algorithm", "switch algorithm: fast|normal", FIELD(algorithm)),
    row("seed", "experiment seed (sweeps derive each trial's seed from it)", FIELD(seed)),
    // §5.1.  Buffer positions are distances between uint16 insertion stamps;
    // Q = 0 breaks the fast switch's rate split; with Qs = 0 no startup
    // segment is ever missing, so every peer is censored.
    row("tau", "tau: data scheduling period (s)", FIELD(engine.tau), kPositive),
    row("playback-rate", "p: playback rate (segments/s)", FIELD(engine.playback_rate), kPositive),
    row("buffer-capacity", "B: buffer capacity (segments, >= Qs)", FIELD(engine.buffer_capacity),
        {1.0, stream::StreamBuffer::kMaxCapacity}),
    row("q", "Q: consecutive segments for playback", FIELD(engine.q_consecutive), at_least(1)),
    row("qs", "Qs: startup segments of the new source", FIELD(engine.q_startup), at_least(1)),
    row("source-outbound", "source uplink (segments/s)", FIELD(engine.source_outbound), kPositive),
    // A non-positive horizon ends the run before the switch; a negative
    // history or lag wraps through llround (a lag seeds cursors past the head).
    row("warmup", "live dynamics before the first switch (s)", FIELD(engine.warmup), kPositive),
    row("horizon", "give-up time after the last switch (s)", FIELD(engine.horizon), kPositive),
    row("warm-start", "start in the stable streaming phase, not cold", FIELD(engine.warm_start)),
    row("history", "content before -warmup (s)", FIELD(engine.history_seconds), kNonNegative),
    row("backlog-scale", "stable backlog Q0 = scale * N^exponent (segments)",
        FIELD(engine.stable_backlog_scale), kNonNegative),
    row("backlog-exponent", "stable backlog exponent", FIELD(engine.stable_backlog_exponent)),
    row("base-lag", "min initial lag (segments)", FIELD(engine.base_lag_segments), kNonNegative),
    row("hop-lag", "extra initial lag per hop (s)", FIELD(engine.hop_lag_seconds), kNonNegative),
    row("sparse-fill", "coverage of the lag window (fraction)", FIELD(engine.sparse_fill), kUnit),
    // A negative accept horizon rejects every request; RateBudget holds at
    // least one period of inbound budget.
    row("pending-timeout", "request retry timeout (s)", FIELD(engine.pending_timeout), kPositive),
    row("accept-horizon", "supplier backlog cap (s)", FIELD(engine.accept_horizon), kNonNegative),
    row("capacity-model", "supplier capacity model: shared-fifo|per-link|token-bucket",
        FIELD(engine.supplier_capacity)),
    row("token-bucket-burst", "token-bucket burst depth (segments)",
        FIELD(engine.token_bucket_burst), at_least(1.0)),
    row("budget-carry", "periods of inbound budget banked (1 = the paper's)",
        FIELD(engine.budget_carry), at_least(1.0)),
    // A negative churn fraction wraps into a huge join count; above 1 the
    // swarm compounds every period.  A ping shape <= 0 puts every joiner at
    // the cap or below the minimum; an infinite crowd window admits nobody.
    row("churn", "leave and join fraction per period (0.05 = paper dynamic)",
        FIELD(engine.churn_leave_fraction), kUnit),
    row("churn", "", FIELD(engine.churn_join_fraction), kUnit),
    row("join-ping-min-ms", "joiner ping minimum (ms)", FIELD(engine.join_ping_min_ms), kPositive),
    row("join-ping-shape", "joiner ping Pareto shape", FIELD(engine.join_ping_shape), kPositive),
    row("join-ping-cap-ms", "joiner ping cap (ms)", FIELD(engine.join_ping_cap_ms), kPositive),
    row("flash-crowd-joins", "flash crowd: extra peers joining after the first switch (0 = off)",
        FIELD(engine.flash_crowd_joins)),
    row("flash-crowd-start", "flash crowd: start after the first switch (s)",
        FIELD(engine.flash_crowd_start)),
    row("flash-crowd-duration", "flash crowd: admission window (s)",
        FIELD(engine.flash_crowd_duration), kNonNegative),
    // Mechanism: identical metrics at every value (the lane count is clamped
    // to the hardware, so the shard cap only catches nonsense).
    row("stagger-ticks", "randomize each tick shard's phase", FIELD(engine.stagger_ticks)),
    row("tick-shard", "peers per tick shard (phase group and sweep event)",
        FIELD(engine.tick_shard_size), at_least(1)),
    row("parallel-shards",
        "sharded parallel core: plan/commit lanes / delivery-drain shards (identical metrics "
        "at any count; 0 = sequential)",
        FIELD(engine.parallel_shards), {0.0, 4096.0}),
    row("debug-series", "record a per-period health series", FIELD(engine.debug_series)),
    // Extensions.
    row("delta-maps", "charge availability gossip as buffer-map deltas (lowers overhead)",
        FIELD(engine.delta_maps)),
    row("map-refresh", "adverts between full-map refreshes under --delta-maps",
        FIELD(engine.map_refresh_period), at_least(1)),
    row("push", "enable GridMedia-style fresh-segment push", FIELD(engine.push_fresh_segments)),
    row("push-fanout", "push fanout when --push (peers)", FIELD(engine.push_fanout)),
    row("cdn-assist",
        "CDN-assisted fast switch: a capacity-limited patch source bursts the head of the new "
        "session to switching peers (changes dynamics by design; off = bit-identical)",
        FIELD(engine.cdn_assist)),
    row("cdn-rate", "CDN uplink capacity (segments/s)", FIELD(engine.cdn_assist_rate), kPositive),
    row("cdn-latency-ms", "CDN->peer latency (ms)", FIELD(engine.cdn_assist_latency_ms),
        kNonNegative),
    row("cdn-horizon", "CDN backlog cap (s)", FIELD(engine.cdn_assist_horizon), kNonNegative),
    row("cdn-pause", "buffered lead that pauses a patch burst (s, >= --cdn-resume)",
        FIELD(engine.cdn_assist_pause_s), kNonNegative),
    row("cdn-resume", "buffered lead that resumes a paused burst (s)",
        FIELD(engine.cdn_assist_resume_s), kNonNegative),
    row("cdn-span", "cap on patched segments per switch (0 = the full Qs prefix)",
        FIELD(engine.cdn_assist_span)),
    // Eq. 7-9.  The diversity reservation is round(fraction * budget) picks.
    row("urgency-cap", "urgency clamp (eq. 7)", FIELD(priority.urgency_cap), kPositive),
    row("traditional-rarity", "1/n rarity instead of eq. 8", FIELD(priority.traditional_rarity)),
    row("diversity", "request-budget fraction reserved for fresh segments",
        FIELD(priority.diversity_fraction), kUnit),
};

#undef FIELD

std::string describe(const Range& range, bool real) {
  std::string out;
  if (range.min > -kInf) out = (range.min_open ? "> " : ">= ") + to_text(range.min);
  if (range.max < kInf) out += (out.empty() ? "<= " : " and <= ") + to_text(range.max);
  if (real) out += out.empty() ? "finite" : " and finite";
  return out;
}

}  // namespace

std::span<const Setting> settings() { return kSettings; }

void check_ranges(const Config& config) {
  for (const Setting& setting : kSettings) {
    if (setting.number == nullptr) continue;
    const double value = setting.number(config);
    const Range& range = setting.range;
    const bool real = setting.kind == Setting::Kind::kReal;
    // Written so that NaN fails: it compares false against every bound.
    const bool above_min = range.min_open ? value > range.min : value >= range.min;
    if (above_min && value <= range.max && (!real || std::isfinite(value))) continue;
    throw std::invalid_argument("--" + std::string(setting.flag) + " must be " +
                                describe(range, real) + " (got " + setting.text(config) + ")");
  }
}

void define_settings(util::Flags& flags, const Config& config,
                     const std::vector<std::string_view>& owned) {
  std::string_view previous;
  for (const Setting& setting : kSettings) {
    const bool shared = setting.flag == std::exchange(previous, setting.flag);
    if (shared || std::find(owned.begin(), owned.end(), setting.flag) != owned.end()) continue;
    flags.define(std::string(setting.flag), setting.text(config), std::string(setting.help));
  }
}

void read_settings(const util::Flags& flags, Config& config) {
  for (const Setting& setting : kSettings) {
    if (flags.given(setting.flag)) setting.read(flags, setting.flag, config);
  }
}

}  // namespace gs::exp
