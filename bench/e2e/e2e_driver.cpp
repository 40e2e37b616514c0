// End-to-end benchmark driver: one workload repetition per process.
//
//   e2e_driver --workload NAME --seed N [--traced] [--smoke] [--shards K]
//              [--trace-out PATH]
//
// A repetition builds each leg's scenario (exp::build_scenario), constructs
// its Engine and runs it (Engine::run); the paper pair has two legs (fast
// switch, then normal switch on the same seed), every other workload one.
// Every layer is measured from outside: wall clocks around the calls into
// net (scenario build) and stream (engine construction, run), the public
// stats()/overhead() after run(), and a decorator around the injected
// SchedulerStrategy (core).  The decorator always records the first
// schedule() call — the end of engine initialisation — and with --traced
// also times every call into per-thread accumulators.
//
// Prints one JSON object on stdout: the rep's end-to-end numbers (setup_s,
// sim_s, peak_rss_mb), the output digest, failed invariants, the paper's
// §5.2 numbers and the per-layer metrics.  --trace-out writes the spans and
// per-thread schedule() aggregates of the rep as JSON.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "experiments/config.hpp"
#include "experiments/scenario.hpp"
#include "stream/engine.hpp"
#include "util/meminfo.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using gs::exp::AlgorithmKind;
using gs::exp::Config;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU seconds of the whole process (all threads).
double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// ------------------------------------------------------------- workloads ---

/// Sets a pure-mechanism plane (identical fixed-seed outputs on or off) only
/// while EngineConfig still has the field: once a plane is made
/// unconditional and its flag deleted, the assignment drops out and this
/// driver keeps compiling unchanged.
#define E2E_SET_PLANE(engine, field, value)                         \
  [](auto& c, [[maybe_unused]] auto v) {                            \
    if constexpr (requires { c.field; }) c.field = v;               \
  }(engine, value)

void enable_fast_planes(Config& config, std::size_t shards) {
  E2E_SET_PLANE(config.engine, batch_dispatch, true);
  E2E_SET_PLANE(config.engine, incremental_availability, true);
  E2E_SET_PLANE(config.engine, windowed_availability, true);
  E2E_SET_PLANE(config.engine, peer_pool, true);
  E2E_SET_PLANE(config.engine, timing_wheel, true);
  E2E_SET_PLANE(config.engine, plan_gate, true);
  E2E_SET_PLANE(config.engine, parallel_shards, shards);
  config.engine.tick_shard_size = 256;
}

struct Leg {
  std::string label;
  Config config;
};

struct Workload {
  std::vector<Leg> legs;
  /// All tracked peers must prepare S2 (the run goes to completion).
  bool to_completion = false;
  /// Plan lanes the workload asks for (0 = sequential).
  std::size_t shards = 0;
};

/// The workload table.  `smoke` divides the peer count by 50 and shortens
/// the horizon; `shards` (when set) overrides the lane count, which changes
/// no output — the golden of the 4-lane workload is recorded at 0.
Workload make_workload(std::string_view name, std::uint64_t seed, bool smoke,
                       std::optional<std::size_t> shards) {
  const auto scale = [smoke](std::size_t n) {
    return smoke ? std::max<std::size_t>(n / 50, 40) : n;
  };
  Workload w;
  if (name == "paper-pair-1k") {
    // One Fig. 6/7 point: fast then normal switch, same seed, to completion.
    w.to_completion = true;
    for (const AlgorithmKind algorithm : {AlgorithmKind::kFast, AlgorithmKind::kNormal}) {
      Config c = Config::paper_static(scale(1000), algorithm, seed);
      w.legs.push_back({std::string(gs::exp::to_string(algorithm)), c});
    }
  } else if (name == "busy-15k-4lane") {
    // Stable-phase backlog at scale on the sharded core.
    w.shards = 4;
    Config c = Config::paper_static(scale(15000), AlgorithmKind::kFast, seed);
    c.engine.history_seconds = 20.0;
    c.engine.horizon = smoke ? 1.0 : 2.0;
    w.legs.push_back({"fast", c});
  } else if (name == "steady-60k") {
    // Caught-up steady swarm: about half the plans are gated.
    Config c = Config::paper_static(scale(60000), AlgorithmKind::kFast, seed);
    c.engine.sparse_fill = 1.0;
    c.engine.stable_backlog_scale = 0.0;
    c.engine.base_lag_segments = 0.0;
    c.engine.hop_lag_seconds = 0.0;
    c.engine.history_seconds = 10.0;
    c.engine.horizon = smoke ? 1.0 : 3.0;
    w.legs.push_back({"fast", c});
  } else if (name == "churn-cdn-1k") {
    // Paper dynamic churn, two switches, CDN assist: writes beside reads.
    Config c = Config::paper_dynamic(scale(1000), AlgorithmKind::kFast, seed);
    c.switch_times = {0.0, 20.0};
    c.enable_cdn_assist(true);
    c.engine.horizon = smoke ? 10.0 : 40.0;
    w.legs.push_back({"fast", c});
  } else {
    throw std::invalid_argument("unknown workload: " + std::string(name));
  }
  if (shards) w.shards = *shards;
  for (Leg& leg : w.legs) enable_fast_planes(leg.config, w.shards);
  return w;
}

// ---------------------------------------------------- strategy decorator ---

/// Log-linear latency histogram: 8 sub-buckets per power of two (exact
/// below 8 ns), so percentiles are good to ~6%.
class LatencyHistogram {
 public:
  static constexpr std::size_t kSub = 8;
  static constexpr std::size_t kBuckets = 64 * kSub;

  void add(std::uint64_t ns) { ++counts_[bucket(ns)]; }
  void merge(const LatencyHistogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  }
  /// Midpoint of the bucket holding quantile q, in microseconds.
  [[nodiscard]] double quantile_us(double q) const {
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts_) total += c;
    if (total == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen >= std::max<std::uint64_t>(rank, 1)) {
        return 1e-3 * (lower_ns(b) + 0.5 * width_ns(b));
      }
    }
    return 0.0;
  }
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& counts() const { return counts_; }
  [[nodiscard]] static double lower_ns(std::size_t b) {
    if (b < kSub) return static_cast<double>(b);
    const std::size_t msb = b / kSub + 2;
    return std::ldexp(static_cast<double>(kSub + b % kSub), static_cast<int>(msb) - 3);
  }
  [[nodiscard]] static double width_ns(std::size_t b) {
    return b < kSub ? 1.0 : std::ldexp(1.0, static_cast<int>(b / kSub + 2) - 3);
  }

 private:
  static std::size_t bucket(std::uint64_t ns) {
    if (ns < kSub) return static_cast<std::size_t>(ns);
    const auto msb = static_cast<std::size_t>(std::bit_width(ns) - 1);  // >= 3
    return (msb - 2) * kSub + static_cast<std::size_t>((ns >> (msb - 3)) & (kSub - 1));
  }

  std::array<std::uint64_t, kBuckets> counts_{};
};

/// schedule() totals of one thread (plan lanes call the strategy
/// concurrently, so each thread owns one; padded against false sharing).
struct alignas(64) LaneTotals {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  std::uint64_t candidates = 0;
  std::uint64_t requests = 0;
  LatencyHistogram latency;

  void merge(const LaneTotals& o) {
    calls += o.calls;
    ns += o.ns;
    candidates += o.candidates;
    requests += o.requests;
    latency.merge(o.latency);
  }
};

/// Wraps the injected strategy.  Always records the first call (time and
/// process CPU); traced, also times each call into the thread's LaneTotals.
class ProbedStrategy final : public gs::stream::SchedulerStrategy {
 public:
  ProbedStrategy(std::shared_ptr<gs::stream::SchedulerStrategy> inner, bool traced)
      : inner_(std::move(inner)), traced_(traced) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }

  [[nodiscard]] std::vector<gs::stream::ScheduledRequest> schedule(
      const gs::stream::ScheduleContext& ctx,
      std::vector<gs::stream::CandidateSegment>& candidates) override {
    if (!called_.load(std::memory_order_relaxed) && !called_.exchange(true)) {
      first_call_ = Clock::now();
      first_call_cpu_ = process_cpu_seconds();
    }
    if (!traced_) return inner_->schedule(ctx, candidates);
    const std::size_t offered = candidates.size();
    const Clock::time_point start = Clock::now();
    std::vector<gs::stream::ScheduledRequest> out = inner_->schedule(ctx, candidates);
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
    LaneTotals& lane = this_lane();
    ++lane.calls;
    lane.ns += ns;
    lane.candidates += offered;
    lane.requests += out.size();
    lane.latency.add(ns);
    return out;
  }

  [[nodiscard]] bool called() const { return called_.load(); }
  [[nodiscard]] Clock::time_point first_call() const { return first_call_; }
  [[nodiscard]] double first_call_cpu() const { return first_call_cpu_; }
  /// Per-thread totals; read only after Engine::run() returned.
  [[nodiscard]] const std::vector<std::unique_ptr<LaneTotals>>& lanes() const { return lanes_; }

 private:
  LaneTotals& this_lane() {
    thread_local std::uint64_t owner = 0;
    thread_local LaneTotals* lane = nullptr;
    if (owner != id_) {
      std::lock_guard<std::mutex> lock(lanes_mutex_);
      lanes_.push_back(std::make_unique<LaneTotals>());
      lane = lanes_.back().get();
      owner = id_;
    }
    return *lane;
  }

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> counter{0};
    return ++counter;
  }

  std::shared_ptr<gs::stream::SchedulerStrategy> inner_;
  const bool traced_;
  const std::uint64_t id_ = next_id();  // never 0, the thread_local "none"
  std::atomic<bool> called_{false};
  Clock::time_point first_call_{};
  double first_call_cpu_ = 0.0;
  std::mutex lanes_mutex_;
  std::vector<std::unique_ptr<LaneTotals>> lanes_;  // guarded by lanes_mutex_
};

// ----------------------------------------------------------------- digest ---

/// FNV-1a (64-bit) over the little-endian bytes of each value.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::vector<double>& values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (const double v : values) add(v);
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Everything the digest covers: every SwitchMetrics field, the overhead
/// accountant's bit counts and the mechanism-invariant EngineStats counters.
/// Excludes events_popped / index_updates (the delivery wave pops the final
/// batch whole) and every gate-, lane- or machine-dependent counter.
void digest_leg(Digest& d, const std::vector<gs::stream::SwitchMetrics>& metrics,
                const gs::gossip::OverheadAccountant& overhead,
                const gs::stream::EngineStats& s) {
  d.add(static_cast<std::uint64_t>(metrics.size()));
  for (const gs::stream::SwitchMetrics& m : metrics) {
    d.add(static_cast<std::uint64_t>(m.switch_index));
    d.add(m.switch_time);
    for (const std::size_t v :
         {m.tracked, m.finished_s1, m.prepared_s2, m.censored_finish, m.censored_prepare}) {
      d.add(static_cast<std::uint64_t>(v));
    }
    d.add(m.finish_times);
    d.add(m.prepared_times);
    d.add(m.s2_start_times);
    d.add(static_cast<std::uint64_t>(m.track.size()));
    for (const gs::stream::TrackPoint& t : m.track) {
      d.add(t.time);
      d.add(t.undelivered_ratio_s1);
      d.add(t.delivered_ratio_s2);
      d.add(static_cast<std::uint64_t>(t.live_tracked));
    }
    d.add(m.overhead_ratio);
    d.add(m.control_ratio);
    d.add(m.data_segments);
  }
  for (const std::uint64_t v : {overhead.buffer_map_bits(), overhead.request_bits(),
                                overhead.data_bits(), overhead.membership_bits(),
                                overhead.data_segments()}) {
    d.add(v);
  }
  for (const std::uint64_t v :
       {s.segments_generated, s.segments_delivered, s.segments_pushed, s.requests_issued,
        s.requests_rejected, s.duplicates, static_cast<std::uint64_t>(s.joins),
        static_cast<std::uint64_t>(s.leaves), s.split_ticks, s.old_stream_requests,
        s.new_stream_requests, s.cdn_segments_served, s.cdn_bytes_served,
        s.cdn_requests_rejected, static_cast<std::uint64_t>(s.cdn_assisted_switches),
        static_cast<std::uint64_t>(s.cdn_handoffs), s.cdn_pauses, s.cdn_resumes}) {
    d.add(v);
  }
  d.add(s.cdn_mean_assist_s);
}

// -------------------------------------------------------------------- run ---

struct Span {
  std::string name;
  std::string leg;
  int id = 0;
  int parent = 0;  // 0 = root
  double start_s = 0.0;
  double end_s = 0.0;
};

struct LegResult {
  std::string label;
  double scenario_s = 0.0;
  double construct_s = 0.0;
  double init_s = 0.0;
  double sim_s = 0.0;
  double sim_cpu_s = 0.0;
  std::vector<gs::stream::SwitchMetrics> metrics;
  gs::stream::EngineStats stats;
  gs::gossip::OverheadAccountant overhead;
  std::vector<LaneTotals> core_lanes;  ///< schedule() totals per thread
  bool probe_called = false;
};

LegResult run_leg(const Leg& leg, bool traced, Clock::time_point origin, std::vector<Span>& spans) {
  LegResult r;
  r.label = leg.label;
  const Config& config = leg.config;
  const auto rel = [origin](Clock::time_point t) { return seconds_between(origin, t); };
  const int leg_id = static_cast<int>(spans.size()) + 1;

  const Clock::time_point t0 = Clock::now();
  gs::exp::BuiltScenario scenario = gs::exp::build_scenario(config);
  const Clock::time_point t1 = Clock::now();
  gs::stream::EngineConfig engine_config = config.engine;
  engine_config.membership_degree = config.neighbor_target;
  engine_config.seed = config.seed;
  auto probe = std::make_shared<ProbedStrategy>(gs::exp::make_strategy(config), traced);
  auto engine = std::make_unique<gs::stream::Engine>(
      std::move(scenario.graph), std::move(scenario.latency), engine_config, probe);
  engine->set_sources(std::move(scenario.sources), config.switch_times);
  const Clock::time_point t2 = Clock::now();
  r.metrics = engine->run();
  const Clock::time_point t3 = Clock::now();
  const double cpu_end = process_cpu_seconds();

  r.probe_called = probe->called();
  const Clock::time_point first = r.probe_called ? probe->first_call() : t3;
  r.scenario_s = seconds_between(t0, t1);
  r.construct_s = seconds_between(t1, t2);
  r.init_s = seconds_between(t2, first);
  r.sim_s = seconds_between(first, t3);
  r.sim_cpu_s = r.probe_called ? cpu_end - probe->first_call_cpu() : 0.0;
  r.stats = engine->stats();
  r.overhead = engine->overhead();
  for (const std::unique_ptr<LaneTotals>& lane : probe->lanes()) {
    r.core_lanes.push_back(*lane);
  }

  spans.push_back({"leg", leg.label, leg_id, 0, rel(t0), rel(t3)});
  spans.push_back({"build_scenario", leg.label, leg_id + 1, leg_id, rel(t0), rel(t1)});
  spans.push_back({"engine_construct", leg.label, leg_id + 2, leg_id, rel(t1), rel(t2)});
  spans.push_back({"run", leg.label, leg_id + 3, leg_id, rel(t2), rel(t3)});
  spans.push_back({"init", leg.label, leg_id + 4, leg_id + 3, rel(t2), rel(first)});
  spans.push_back({"sim", leg.label, leg_id + 5, leg_id + 3, rel(first), rel(t3)});
  return r;
}

/// Invariants every leg must satisfy; returns one message per violation.
std::vector<std::string> check_leg(const Workload& w, const LegResult& r) {
  std::vector<std::string> errors;
  const auto fail = [&](const std::string& what) { errors.push_back(r.label + ": " + what); };
  if (!r.probe_called) fail("the strategy was never called");
  if (r.stats.segments_delivered == 0) fail("no segment delivered");
  if (r.metrics.size() != w.legs.front().config.switch_times.size()) fail("switch count");
  for (const gs::stream::SwitchMetrics& m : r.metrics) {
    const std::string sw = "switch " + std::to_string(m.switch_index) + " ";
    if (m.tracked == 0) fail(sw + "tracks no peer");
    if (m.finished_s1 + m.censored_finish != m.tracked) fail(sw + "finish count");
    if (m.prepared_s2 + m.censored_prepare != m.tracked) fail(sw + "prepare count");
    if (m.prepared_times.size() != m.prepared_s2) fail(sw + "prepared times");
    if (m.finish_times.size() != m.finished_s1) fail(sw + "finish times");
    for (const double t : m.prepared_times) {
      if (!std::isfinite(t) || t < 0.0) fail(sw + "bad switch time");
    }
    if (w.to_completion && m.censored_prepare != 0) fail(sw + "did not complete");
  }
  return errors;
}

// ------------------------------------------------------------------- JSON ---

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

class JsonObject {
 public:
  JsonObject& put(std::string_view key, const std::string& raw) {
    out_ += out_.empty() ? '{' : ',';
    out_ += quoted(key);
    out_ += ':';
    out_ += raw;
    return *this;
  }
  JsonObject& put(std::string_view key, double v) { return put(key, num(v)); }
  [[nodiscard]] std::string str() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) out += (i ? "," : "") + items[i];
  return out + "]";
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// The per-layer metrics of one rep (names as in BENCHMARK.json).  The
/// pair's legs sum; core.* read 0 on untraced reps.
std::string layer_metrics(const std::vector<LegResult>& legs, std::size_t lanes) {
  LaneTotals core;
  gs::stream::EngineStats s;  // summed counters
  double scenario = 0, construct = 0, init = 0, sim = 0, cpu = 0, bytes_per_peer = 0;
  std::uint64_t membership_bits = 0, map_bits = 0, data_bits = 0;
  for (const LegResult& r : legs) {
    for (const LaneTotals& lane : r.core_lanes) core.merge(lane);
    scenario += r.scenario_s;
    construct += r.construct_s;
    init += r.init_s;
    sim += r.sim_s;
    cpu += r.sim_cpu_s;
    bytes_per_peer = std::max(bytes_per_peer, r.stats.bytes_per_peer);
    membership_bits += r.overhead.membership_bits();
    map_bits += r.overhead.buffer_map_bits();
    data_bits += r.overhead.data_bits();
    const gs::stream::EngineStats& x = r.stats;
    s.plans_built += x.plans_built;
    s.plans_gated += x.plans_gated;
    s.availability_probes += x.availability_probes;
    s.index_updates += x.index_updates;
    s.replanned_ticks += x.replanned_ticks;
    s.commit_conflict_fixups += x.commit_conflict_fixups;
    s.parallel_commits += x.parallel_commits;
    s.delivery_batches += x.delivery_batches;
    s.delta_journal_merges += x.delta_journal_merges;
    s.superbatch_sweeps += x.superbatch_sweeps;
    s.segments_delivered += x.segments_delivered;
    s.requests_issued += x.requests_issued;
    s.requests_rejected += x.requests_rejected;
    s.duplicates += x.duplicates;
    s.joins += x.joins;
    s.leaves += x.leaves;
    s.cdn_segments_served += x.cdn_segments_served;
    s.cdn_handoffs += x.cdn_handoffs;
    s.events_popped += x.events_popped;
    s.events_wheeled += x.events_wheeled;
    s.wheel_overflow_promotions += x.wheel_overflow_promotions;
    s.spill_heap_peak = std::max(s.spill_heap_peak, x.spill_heap_peak);
    s.cross_shard_events += x.cross_shard_events;
    s.arena_steady_chunks += x.arena_steady_chunks;
  }
  const auto d = [](auto v) { return static_cast<double>(v); };
  const double schedule_s = 1e-9 * d(core.ns);
  JsonObject o;
  o.put("net.scenario_s", scenario)
      .put("stream.construct_s", construct)
      .put("stream.init_s", init)
      .put("stream.bytes_per_peer", bytes_per_peer)
      .put("core.schedule_calls", d(core.calls))
      .put("core.schedule_s", schedule_s)
      .put("core.schedule_share", ratio(schedule_s, cpu))
      .put("core.schedule_p50_us", core.latency.quantile_us(0.50))
      .put("core.schedule_p99_us", core.latency.quantile_us(0.99))
      .put("core.candidates_per_call", ratio(d(core.candidates), d(core.calls)))
      .put("core.requests_per_call", ratio(d(core.requests), d(core.calls)))
      .put("core.calls_per_plan", ratio(d(core.calls), d(s.plans_built)))
      .put("stream.plans_built", d(s.plans_built))
      .put("stream.plans_gated", d(s.plans_gated))
      .put("stream.gate_hit", ratio(d(s.plans_gated), d(s.plans_gated + s.plans_built)))
      .put("stream.availability_probes_per_plan",
           ratio(d(s.availability_probes), d(s.plans_built)))
      .put("stream.index_updates", d(s.index_updates))
      .put("stream.replanned_ticks", d(s.replanned_ticks))
      .put("stream.commit_conflict_fixups", d(s.commit_conflict_fixups))
      .put("stream.parallel_commits", d(s.parallel_commits))
      .put("stream.delivery_batches", d(s.delivery_batches))
      .put("stream.delta_journal_merges", d(s.delta_journal_merges))
      .put("stream.superbatch_sweeps", d(s.superbatch_sweeps))
      .put("stream.self_s", lanes == 1 && core.calls > 0 ? sim - schedule_s : 0.0)
      .put("stream.segments_delivered", d(s.segments_delivered))
      .put("stream.requests_issued", d(s.requests_issued))
      .put("stream.reject_ratio", ratio(d(s.requests_rejected), d(s.requests_issued)))
      .put("stream.dup_ratio", ratio(d(s.duplicates), d(s.segments_delivered)))
      .put("stream.joins", d(s.joins))
      .put("stream.leaves", d(s.leaves))
      .put("stream.cdn_segments_served", d(s.cdn_segments_served))
      .put("stream.cdn_handoffs", d(s.cdn_handoffs))
      .put("gossip.membership_bits", d(membership_bits))
      .put("gossip.buffer_map_bits_per_data_bit", ratio(d(map_bits), d(data_bits)))
      .put("sim.events_popped", d(s.events_popped))
      .put("sim.events_per_s", ratio(d(s.events_popped), sim))
      .put("sim.events_wheeled", d(s.events_wheeled))
      .put("sim.wheel_overflow_promotions", d(s.wheel_overflow_promotions))
      .put("sim.spill_heap_peak", d(s.spill_heap_peak))
      .put("sim.cross_shard_events", d(s.cross_shard_events))
      .put("util.sim_cpu_s", cpu)
      .put("util.lane_utilisation", ratio(cpu, sim * d(lanes)))
      .put("util.arena_steady_chunks", d(s.arena_steady_chunks));
  return o.str();
}

std::string paper_metrics(const std::vector<LegResult>& legs) {
  JsonObject o;
  for (const LegResult& r : legs) {
    for (const gs::stream::SwitchMetrics& m : r.metrics) {
      const std::string key = r.label + ".switch" + std::to_string(m.switch_index);
      o.put(key + ".avg_switch_s", m.avg_prepared_time())
          .put(key + ".avg_finish_s1_s", m.avg_finish_time())
          .put(key + ".overhead_ratio", m.overhead_ratio)
          .put(key + ".prepared", static_cast<double>(m.prepared_s2))
          .put(key + ".tracked", static_cast<double>(m.tracked));
    }
  }
  if (legs.size() == 2 && !legs[0].metrics.empty() && !legs[1].metrics.empty()) {
    o.put("reduction_ratio", gs::stream::reduction_ratio(legs[1].metrics[0].avg_prepared_time(),
                                                        legs[0].metrics[0].avg_prepared_time()));
  }
  return o.str();
}

void write_trace(const std::string& path, std::string_view workload, std::uint64_t seed,
                 const std::vector<Span>& spans, const std::vector<LegResult>& legs) {
  std::vector<std::string> span_items;
  for (const Span& s : spans) {
    span_items.push_back(JsonObject()
                             .put("name", quoted(s.name))
                             .put("leg", quoted(s.leg))
                             .put("id", s.id)
                             .put("parent", s.parent)
                             .put("start_s", s.start_s)
                             .put("end_s", s.end_s)
                             .str());
  }
  std::vector<std::string> lane_items;
  for (const LegResult& r : legs) {
    for (std::size_t i = 0; i < r.core_lanes.size(); ++i) {
      const LaneTotals& lane = r.core_lanes[i];
      std::vector<std::string> hist;  // [lower_ns, count] of non-empty buckets
      for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
        if (lane.latency.counts()[b] == 0) continue;
        hist.push_back(json_list({num(LatencyHistogram::lower_ns(b)),
                                  std::to_string(lane.latency.counts()[b])}));
      }
      lane_items.push_back(JsonObject()
                               .put("leg", quoted(r.label))
                               .put("thread", static_cast<double>(i))
                               .put("calls", static_cast<double>(lane.calls))
                               .put("schedule_s", 1e-9 * static_cast<double>(lane.ns))
                               .put("candidates", static_cast<double>(lane.candidates))
                               .put("requests", static_cast<double>(lane.requests))
                               .put("latency_hist_ns", json_list(hist))
                               .str());
    }
  }
  std::ofstream out(path);
  out << JsonObject()
             .put("workload", quoted(workload))
             .put("seed", static_cast<double>(seed))
             .put("spans", json_list(span_items))
             .put("schedule_threads", json_list(lane_items))
             .str()
      << "\n";
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  bool smoke = false;
  std::optional<std::size_t> shards;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + std::string(flag));
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::stoull(value());
    else if (flag == "--shards") a.shards = std::stoull(value());
    else if (flag == "--trace-out") a.trace_out = value();
    else if (flag == "--traced") a.traced = true;
    else if (flag == "--smoke") a.smoke = true;
    else throw std::invalid_argument("unknown flag " + std::string(flag));
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload w = make_workload(args.workload, args.seed, args.smoke, args.shards);
    const std::size_t lanes =
        w.shards == 0 ? 1
                      : std::min<std::size_t>(
                            w.shards, std::max(1u, std::thread::hardware_concurrency()));

    const Clock::time_point origin = Clock::now();
    std::vector<Span> spans;
    std::vector<LegResult> legs;
    Digest digest;
    std::vector<std::string> errors;
    double setup_s = 0.0, sim_s = 0.0;
    for (const Leg& leg : w.legs) {
      legs.push_back(run_leg(leg, args.traced, origin, spans));
      const LegResult& r = legs.back();
      digest_leg(digest, r.metrics, r.overhead, r.stats);
      for (std::string& e : check_leg(w, r)) errors.push_back(quoted(e));
      setup_s += r.scenario_s + r.construct_s + r.init_s;
      sim_s += r.sim_s;
    }
    if (!args.trace_out.empty()) write_trace(args.trace_out, args.workload, args.seed, spans, legs);

    std::cout << JsonObject()
                     .put("workload", quoted(args.workload))
                     .put("seed", static_cast<double>(args.seed))
                     .put("traced", args.traced ? "true" : "false")
                     .put("lanes", static_cast<double>(lanes))
                     .put("digest", quoted(digest.hex()))
                     .put("errors", json_list(errors))
                     .put("setup_s", setup_s)
                     .put("sim_s", sim_s)
                     .put("peak_rss_mb",
                          static_cast<double>(gs::util::peak_rss_bytes()) / (1024.0 * 1024.0))
                     .put("paper", paper_metrics(legs))
                     .put("layers", layer_metrics(legs, lanes))
                     .str()
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "e2e_driver: " << e.what() << "\n";
    return 2;
  }
}
