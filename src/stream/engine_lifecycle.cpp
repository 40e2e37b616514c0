// Engine lifecycle: peer initialisation, warm start, churn, the debug
// series and the run loop.  The per-tick pipeline lives in engine.cpp.
#include <algorithm>
#include <cmath>
#include <limits>

#include "stream/engine.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/meminfo.hpp"

namespace gs::stream {

void Engine::init_peer_state(PeerNode& p, net::NodeId v) {
  p.id = v;
  util::Rng node_setup = setup_rng_.fork(v);
  double inbound_rate = 0.0;
  if (p.is_source) {
    p.outbound_rate = config_.source_outbound;
  } else {
    inbound_rate = config_.inbound.sample(node_setup);
    p.outbound_rate = config_.outbound.sample(node_setup);
  }
  p.in_budget = RateBudget(inbound_rate, config_.budget_carry);
  p.buffer = StreamBuffer(config_.buffer_capacity);
  p.playback = Playback(config_.playback_rate);
  p.rng = util::Rng(config_.seed).fork(util::hash_name("peer")).fork(v);
}

void Engine::init_peers() {
  const std::size_t n = graph_.node_count();
  peers_.resize(n);
  transfers_.ensure_nodes(peers_.size());
  if (cdn_) cdn_->ensure_nodes(peers_.size());
  std::vector<char> is_source(graph_.node_count(), 0);
  for (const Session& s : timeline_.sessions()) is_source[s.source] = 1;
  for (net::NodeId v = 0; v < graph_.node_count(); ++v) {
    PeerNode& p = peers_[v];
    p.is_source = is_source[v] != 0;
    init_peer_state(p, v);
    p.start_id = 0;
  }
  membership_.bootstrap_all_live();
  for (net::NodeId v = 0; v < graph_.node_count(); ++v) {
    start_peer_tick(peers_[v], /*initial=*/true);
  }
}

double Engine::tick_offset(net::NodeId v) const {
  if (!config_.stagger_ticks) return 0.0;
  const std::size_t shard = v / std::max<std::size_t>(1, config_.tick_shard_size);
  return util::Rng(config_.seed)
      .fork(util::hash_name("tick-phase"))
      .fork(shard)
      .uniform(0.0, config_.tau);
}

void Engine::start_peer_tick(PeerNode& p, bool initial) {
  if (p.is_source) return;  // sources never pull
  const double start = sim_.now() + tick_offset(p.id);
  if (initial) {
    // Initial peers of a shard share the same start time; the shard's
    // group is armed by its first non-source peer, so the group's event
    // claims exactly the sequence slot that peer's own periodic tick would.
    const std::size_t shard = p.id / std::max<std::size_t>(1, config_.tick_shard_size);
    if (shard >= shard_group_.size()) shard_group_.resize(shard + 1, kNoTickGroup);
    if (shard_group_[shard] == kNoTickGroup) shard_group_[shard] = ticker_.add_group(start);
    p.tick_group = shard_group_[shard];
  } else {
    // Joiners tick on their own grid (join time + phase), so they get a
    // singleton group whose first event is scheduled at this very call.
    p.tick_group = ticker_.add_group(start);
  }
  ticker_.add_member(p.tick_group, p.id);
}

// --------------------------------------------------------------- churn ---

void Engine::churn_step(double now) {
  std::size_t live_peers = 0;
  for (const net::NodeId v : membership_.live_nodes()) {
    if (!peers_[v].is_source) ++live_peers;
  }
  const auto n_leave = static_cast<std::size_t>(
      std::llround(config_.churn_leave_fraction * static_cast<double>(live_peers)));
  const auto n_join = static_cast<std::size_t>(
      std::llround(config_.churn_join_fraction * static_cast<double>(live_peers)));

  // Select distinct non-source victims before mutating the live list.
  std::vector<net::NodeId> victims;
  victims.reserve(n_leave);
  std::size_t attempts = 0;
  while (victims.size() < n_leave && attempts < n_leave * 30 + 30) {
    ++attempts;
    const auto& live = membership_.live_nodes();
    if (live.empty()) break;
    const net::NodeId v = live[static_cast<std::size_t>(
        churn_rng_.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
    if (peers_[v].is_source) continue;
    if (std::find(victims.begin(), victims.end(), v) != victims.end()) continue;
    victims.push_back(v);
  }
  for (const net::NodeId v : victims) handle_leave(v);
  for (std::size_t i = 0; i < n_join; ++i) handle_join();
  (void)now;
}

void Engine::handle_leave(net::NodeId v) {
  PeerNode& p = peers_[v];
  GS_CHECK(p.alive);
  GS_CHECK(!p.is_source);
  p.alive = false;
  ticker_.remove_member(p.tick_group, p.id);
  p.tick_group = kNoTickGroup;
  // Isolates v before anything reads the graph again, so every adjacency
  // list the engine reads names alive peers only.
  membership_.leave(v);
  ++stats_.leaves;
  if (p.tracked && p.active_switch >= 0) {
    SwitchMetrics& m = timeline_.metrics(p.active_switch);
    if (!p.sw_finished) {
      ++m.censored_finish;
      p.sw_finished = true;
    }
    if (!p.sw_prepared) {
      ++m.censored_prepare;
      p.sw_prepared = true;
    }
    p.tracked = false;
    check_experiment_complete();
  }
}

net::NodeId Engine::handle_join() {
  const net::NodeId v = membership_.join();
  GS_CHECK_EQ(static_cast<std::size_t>(v), peers_.size());
  latency_.add_node(std::min(churn_rng_.pareto(config_.join_ping_min_ms, config_.join_ping_shape),
                             config_.join_ping_cap_ms));
  peers_.emplace_back();
  transfers_.ensure_nodes(peers_.size());
  if (cdn_) cdn_->ensure_nodes(peers_.size());
  PeerNode& p = peers_.back();
  init_peer_state(p, v);
  ++stats_.joins;

  // "A new joining node ... starts its media playback by following its
  // neighbours' current steps" (§5.4): begin at the furthest neighbour
  // playhead instead of fetching the back catalogue.
  SegmentId start = kNoSegment;
  for (const net::NodeId nb : graph_.neighbors(v)) {
    const PeerNode& n = peers_[nb];
    if (n.alive && n.playback.started()) start = std::max(start, n.playback.cursor());
  }
  if (start == kNoSegment) {
    start = std::max<SegmentId>(
        0, registry_.next_id() - static_cast<SegmentId>(config_.q_consecutive));
  }
  p.start_id = start;

  // Mid-switch joiners participate mechanically but are not tracked.
  const int current = timeline_.current_switch();
  if (current >= 0 && timeline_.session(static_cast<std::size_t>(current)).ended() &&
      p.start_id <= timeline_.session(static_cast<std::size_t>(current)).last) {
    timeline_.init_switch_counters(p, current, sim_.now(), config_.q_startup);
  }
  start_peer_tick(p, /*initial=*/false);
  return v;
}

// ---------------------------------------------------------- warm start ---

void Engine::warm_start_state() {
  const double p_rate = config_.playback_rate;
  const auto history_count =
      static_cast<std::size_t>(std::llround(config_.history_seconds * p_rate));
  if (history_count == 0) return;
  const double t0 = sim_.now();

  // Pre-generate the old source's history, timestamped in the past.
  Session& first_session = timeline_.session(0);
  PeerNode& src = peers_[first_session.source];
  for (std::size_t i = 0; i < history_count; ++i) {
    const double created = t0 - static_cast<double>(history_count - i) / p_rate;
    const SegmentId id = registry_.append(0, created, kNoSegment);
    if (first_session.first == kNoSegment) first_session.first = id;
    ++stats_.segments_generated;
    src.preload(id);
  }
  const SegmentId head = registry_.next_id() - 1;

  const std::vector<std::size_t> hops = graph_.bfs_hops(first_session.source);
  const double population = static_cast<double>(std::max<std::size_t>(peers_.size(), 2));
  // A zero scale means no backlog even where the power overflows (0 * inf
  // would be a NaN lag).
  const double backlog_target =
      config_.stable_backlog_scale == 0.0
          ? 0.0
          : config_.stable_backlog_scale * std::pow(population, config_.stable_backlog_exponent);
  for (PeerNode& p : peers_) {
    if (p.is_source) continue;
    // Roughly uniform backlog (see config docs) with mild spread and an
    // optional per-hop component.  The warmup is kept short so spare
    // inbound rate does not drain the seeded state before the switch (in
    // the paper's stable phase the backlog is availability-pinned: "most
    // nodes' data delivery rate cannot catch the media play rate").
    const double hop_count = hops[p.id] == std::numeric_limits<std::size_t>::max()
                                 ? 6.0
                                 : static_cast<double>(hops[p.id]);
    const double backlog = backlog_target * p.rng.uniform(0.85, 1.15) +
                           config_.hop_lag_seconds * hop_count * p_rate +
                           config_.base_lag_segments;
    // Any lag of at least `head` starts the cursor at 0, so clamping there
    // keeps every result while a huge finite lag (a 1e300 backlog scale)
    // can no longer overflow the subtraction.
    const double lag_segments = std::min(
        backlog / std::max(0.05, 1.0 - config_.sparse_fill), static_cast<double>(head));
    const SegmentId cursor =
        std::max<SegmentId>(0, head - static_cast<SegmentId>(std::llround(lag_segments)));
    // Solid prefix up to the playback position; the lag window beyond it is
    // mostly missing (this IS the node's Q0 backlog) with sparse random
    // coverage for supplier diversity.
    for (SegmentId id = 0; id <= cursor; ++id) p.preload(id);
    for (SegmentId id = cursor + 1; id <= head; ++id) {
      if (p.rng.bernoulli(config_.sparse_fill)) p.preload(id);
    }
    p.start_run = static_cast<std::uint32_t>(cursor) + 1;
    p.playback.start(cursor, t0);
  }
}

// -------------------------------------------------------- debug series ---

void Engine::start_debug_series() {
  debug_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, sim_.now() + config_.tau, config_.tau, [this](double now) {
        DebugPoint point;
        point.time = now;
        point.head = registry_.next_id() - 1;
        double cursor_gap = 0.0;
        double frontier_gap = 0.0;
        std::size_t counted = 0;
        for (const PeerNode& p : peers_) {
          if (p.is_source || !p.alive) continue;
          ++counted;
          const SegmentId cursor = p.playback_anchor();
          cursor_gap += static_cast<double>(point.head - cursor);
          const SegmentId frontier = next_missing(p.received, cursor);
          const double gap = static_cast<double>(point.head - frontier);
          frontier_gap += gap;
          point.max_frontier_gap = std::max(point.max_frontier_gap, gap);
        }
        if (counted > 0) {
          point.mean_cursor_gap = cursor_gap / static_cast<double>(counted);
          point.mean_frontier_gap = frontier_gap / static_cast<double>(counted);
        }
        const EngineStats& last = debug_last_;
        point.delivered_this_period = stats_.segments_delivered - last.segments_delivered;
        point.requests_this_period = stats_.requests_issued - last.requests_issued;
        point.candidates_this_period = stats_.candidates_offered - last.candidates_offered;
        point.scheduled_this_period = stats_.requests_scheduled - last.requests_scheduled;
        point.old_req_this_period = stats_.old_stream_requests - last.old_stream_requests;
        point.new_req_this_period = stats_.new_stream_requests - last.new_stream_requests;
        debug_last_ = stats_;
        debug_series_.push_back(point);
      });
}

// ------------------------------------------------------------------ run ---

std::vector<SwitchMetrics> Engine::run() {
  GS_CHECK(timeline_.configured()) << "call set_sources() first";
  GS_CHECK(peers_.empty()) << "run() may only be called once";
  init_peers();
  if (config_.warm_start) warm_start_state();
  start_session(0);
  for (std::size_t i = 0; i < timeline_.switch_count(); ++i) {
    schedule_switch(static_cast<int>(i));
  }

  if (config_.churn_leave_fraction > 0.0 || config_.churn_join_fraction > 0.0) {
    churn_task_ = std::make_unique<sim::PeriodicTask>(
        sim_, sim_.now() + config_.tau, config_.tau, [this](double now) { churn_step(now); });
  }
  if (timeline_.switch_count() > 0) {
    sampler_task_ = std::make_unique<sim::PeriodicTask>(
        sim_, timeline_.switch_times().front(), config_.tau,
        [this](double now) { timeline_.sample_tracks(now, peers_, config_.q_startup); });
  }
  if (config_.flash_crowd_joins > 0) {
    // Admissions are paced against the cumulative quota so the crowd size
    // is exact regardless of the pump interval; the pump rides the segment
    // grid to interleave with generation deterministically.
    const double base =
        timeline_.switch_count() == 0 ? sim_.now() : timeline_.switch_times().front();
    const double start = base + config_.flash_crowd_start;
    const double interval = 1.0 / config_.playback_rate;
    flash_task_ = std::make_unique<sim::PeriodicTask>(
        sim_, start, interval, [this, start, interval](double now) {
          const double elapsed = now - start + interval;
          const double frac = config_.flash_crowd_duration <= 0.0
                                  ? 1.0
                                  : std::min(1.0, elapsed / config_.flash_crowd_duration);
          const auto quota = static_cast<std::size_t>(
              std::llround(std::ceil(frac * static_cast<double>(config_.flash_crowd_joins))));
          while (flash_joined_ < quota) {
            handle_join();
            ++flash_joined_;
            ++stats_.flash_joins;
          }
          if (flash_joined_ >= config_.flash_crowd_joins) flash_task_->cancel();
        });
  }
  if (config_.debug_series) start_debug_series();

  const double stop_at =
      (timeline_.switch_count() == 0 ? 0.0 : timeline_.switch_times().back()) +
      config_.horizon;
  stats_.events_popped = sim_.run_until(stop_at);
  // Timing-wheel telemetry.
  const sim::TimingWheel::Telemetry& wheel = sim_.wheel_telemetry();
  stats_.events_wheeled = wheel.scheduled;
  stats_.wheel_late_arrivals = wheel.late_arrivals;
  stats_.wheel_overflow_promotions = wheel.overflow_promotions;
  stats_.spill_heap_peak = wheel.spill_peak;
  stats_.event_queue_bytes = sim_.wheel_retained_bytes();

  // Memory-plane telemetry: heap footprint of all per-peer state plus the
  // process high-water mark (the latter includes non-peer state by nature).
  std::uint64_t peer_bytes = 0;
  for (const PeerNode& p : peers_) peer_bytes += p.memory_bytes();
  stats_.peer_state_bytes = peer_bytes;
  // NaN (not 0.0) when there are no peers: consumers must be able to tell
  // "telemetry absent" from a genuine zero-byte measurement.
  stats_.bytes_per_peer = peers_.empty() ? std::numeric_limits<double>::quiet_NaN()
                                         : static_cast<double>(peer_bytes) /
                                               static_cast<double>(peers_.size());
  // 0 means /proc (or the platform equivalent) is absent — report "n/a"
  // downstream, never "0.0 MiB".
  stats_.peak_rss_bytes = util::peak_rss_bytes();

  // The plane and patch_sink_ counted the other cdn_* rows as they went.
  if (cdn_) stats_.cdn_mean_assist_s = cdn_->mean_assist_s();

  // Censor peers that never completed within the horizon, then compute the
  // per-switch overhead ratios from the snapshot deltas.
  timeline_.censor_unfinished(peers_);
  timeline_.finalize_overhead(overhead_);
  return timeline_.results();
}

}  // namespace gs::stream
