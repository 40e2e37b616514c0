// Orchestration: the per-tick pipeline, the data path and the switch
// bookkeeping that spans subsystems.  Setup, churn and the run loop live in
// engine_lifecycle.cpp.
#include "stream/engine.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <thread>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace gs::stream {

Engine::Engine(net::Graph graph, net::LatencyModel latency, EngineConfig config,
               std::shared_ptr<SchedulerStrategy> strategy)
    : graph_(std::move(graph)),
      latency_(std::move(latency)),
      config_(std::move(config)),
      strategy_(std::move(strategy)),
      // The timing wheel is quantized at the tick cadence: a sweep's re-arm
      // is an append to the next bucket, and a delivery is an append to a
      // later bucket or, when due before the next boundary, a push onto the
      // side heap of the bucket being drained (sim/timing_wheel.hpp).
      sim_(-config_.warmup, config_.tau),
      // The availability map covers the buffer: one slot per segment of B,
      // plus the base id; every other size is the paper's.
      overhead_(gossip::WireFormat{.buffer_window_bits = config_.buffer_capacity}),
      membership_(graph_, config_.membership_degree,
                  util::Rng(config_.seed).fork(util::hash_name("membership")), &overhead_),
      transfers_(latency_, config_.supplier_capacity, config_.accept_horizon,
                 config_.token_bucket_burst),
      ticker_(sim_, config_.tau,
              [this](const std::vector<std::uint32_t>& members, double now) {
                // The sharded core takes whole sweeps: pre in member order,
                // then the commit wave (same per-member semantics as the
                // sequential loop).
                if (config_.parallel_shards > 0) {
                  run_parallel_sweep(members, now);
                  return;
                }
                for (const std::uint32_t member : members) tick(peers_[member], now);
              }),
      churn_rng_(util::Rng(config_.seed).fork(util::hash_name("churn"))),
      setup_rng_(util::Rng(config_.seed).fork(util::hash_name("setup"))) {
  GS_CHECK(strategy_ != nullptr);
  GS_CHECK_EQ(latency_.node_count(), graph_.node_count());
  if (config_.parallel_shards > 0) {
    // The delivery drain partitions peers by id % shards, in at most
    // kMaxDataShards per-shard lists.
    const std::size_t shards = std::min(config_.parallel_shards, kMaxDataShards);
    // The batched delivery drain: consecutive delivery events pop as one
    // batch and drain through the book/tail passes.  Fresh-segment push
    // reads neighbour buffers and schedules transfers per delivery, which
    // only the inline pop order reproduces — the drain stands down.
    if (!config_.push_fresh_segments) {
      data_shards_ = shards;
      shard_entries_.resize(shards);
      book_events_.resize(shards);
      book_current_item_.assign(shards, 0);
      sim_.set_batch_sink(&delivery_sink_);
    }
    lanes_ = std::min<std::size_t>(
        config_.parallel_shards, std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  }
  if (config_.cdn_assist) {
    // The CDN uplink runs the engine's configured contention policy over
    // the plane's own state; the engine posts the patches on patch_sink_.
    CdnAssistConfig cdn_config;
    cdn_config.rate = config_.cdn_assist_rate;
    cdn_config.latency_ms = config_.cdn_assist_latency_ms;
    cdn_config.accept_horizon = config_.cdn_assist_horizon;
    cdn_config.pause_lead_s = config_.cdn_assist_pause_s;
    cdn_config.resume_lead_s = config_.cdn_assist_resume_s;
    cdn_config.capacity = config_.supplier_capacity;
    cdn_config.token_bucket_burst = config_.token_bucket_burst;
    cdn_ = std::make_unique<CdnAssistPlane>(cdn_config, stats_);
  }
  // Warm-up traffic is outside the paper's measurement window.
  overhead_.set_enabled(false);
}

void Engine::set_sources(std::vector<net::NodeId> sources, std::vector<double> switch_times) {
  timeline_.set_sources(graph_.node_count(), std::move(sources), std::move(switch_times));
}

const PeerNode& Engine::peer(net::NodeId v) const {
  GS_CHECK_LT(v, peers_.size());
  return peers_[v];
}

void Engine::start_session(SessionIndex k) {
  const double interval = 1.0 / config_.playback_rate;
  // Session k generates only strictly before switch k (on a tie the switch
  // event, scheduled at run start, pops first).  So when switch k - 1
  // replaces session k - 1's task here, that task has nothing pending.
  const std::vector<double>& switches = timeline_.switch_times();
  const double end = static_cast<std::size_t>(k) < switches.size()
                         ? switches[static_cast<std::size_t>(k)]
                         : std::numeric_limits<double>::infinity();
  generation_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, sim_.now(), interval, [this, k](double now) { generate_segment(k, now); }, end);
}

void Engine::generate_segment(SessionIndex k, double now) {
  const SegmentId id = timeline_.append_segment(static_cast<std::size_t>(k));
  ++stats_.segments_generated;
  PeerNode& src = peers_[timeline_.session(static_cast<std::size_t>(k)).source];
  // Locally generated: fills the buffer/availability but is not wire data.
  deliver_segment(src, id, now, /*count_wire=*/false);
}

void Engine::schedule_switch(int switch_index) {
  sim_.at(timeline_.switch_times()[static_cast<std::size_t>(switch_index)], switch_sink_,
          static_cast<std::uint64_t>(switch_index), 0);
}

void Engine::run_switch(int switch_index) {
  const double now = sim_.now();
  timeline_.begin_switch(switch_index, now, timeline_.next_id() - 1);

  if (switch_index == 0) overhead_.set_enabled(true);
  timeline_.capture_overhead(overhead_);

  SwitchMetrics& m = timeline_.metrics(switch_index);
  const Session& old = timeline_.session(static_cast<std::size_t>(switch_index));
  for (PeerNode& p : peers_) {
    if (p.is_source || !p.alive) continue;
    // A peer still mid-way through the previous switch is censored there.
    timeline_.censor_stale(p, switch_index);
    timeline_.init_switch_counters(p, switch_index, now, config_.q_startup);
    p.tracked = true;
    ++m.tracked;
    // Rare: the peer already played past the old stream's end (it was at
    // the live head).  Its finish delay is zero by definition.
    if (p.playback.started() && p.playback.cursor() > old.last) {
      record_finish(p, switch_index, now);
    }
  }

  // The new source learns the boundary immediately (it is told when S1
  // stops; §3's synchronisation assumption).
  PeerNode& next_source =
      peers_[timeline_.session(static_cast<std::size_t>(switch_index) + 1).source];
  learn_boundaries(next_source, switch_index, now);

  start_session(switch_index + 1);
}

// ---------------------------------------------------------------- tick ---
//
// One tick = pre + plan + commit + finish.  The sequential path (tick) runs
// the four phases back to back per peer; the sharded sweep
// (run_parallel_sweep) runs pre for every member of a wave in order, plans
// and commits them together one colour class at a time on the lanes, then
// finishes them in member order.  The only state a tick reads that another
// peer's tick writes is a supplier's uplink backlog (capacity commits
// feeding later members' queue-delay reads), and the colouring orders
// exactly the members that share one the way the sequential engine does.

void Engine::tick(PeerNode& p, double now) {
  if (!tick_pre(p, now)) return;
  tick_plan(p, now, plan_seq_);
  tick_commit(p, now, plan_seq_);
  finish_tick(p, now, plan_seq_);
}

bool Engine::tick_pre(PeerNode& p, double now) {
  if (!p.alive || p.is_source) return false;
  p.in_budget.replenish(config_.tau);
  snapshot_and_learn(p);
  p.prune_pending(now);

  advance_playback(p, now);
  maybe_start_playback(p, now);
  return true;
}

void Engine::tick_plan(PeerNode& p, double now, TickPlan& plan) {
  plan.planned = false;
  plan.split_active = false;
  plan.s1_end = kNoSegment;
  plan.candidates.clear();
  plan.requests.clear();
  plan.probes = 0;
  plan.issued = 0;
  plan.rejected = 0;
  plan.staged.clear();
  if (p.in_budget.whole() == 0) return;
  plan.planned = true;
  // Ids past the old stream's last one are new-stream candidates once the
  // peer knows the active switch's boundary.
  const bool boundary_known = p.active_switch >= 0 && p.known_boundary >= p.active_switch;
  const SegmentId s1_end =
      boundary_known ? timeline_.session(static_cast<std::size_t>(p.active_switch)).last
                     : kNoSegment;
  // Probes are folded by finish_tick: the build may run on a pool thread.
  plan.probes = collect_candidates(p, graph_.neighbors(p.id), peers_, transfers_,
                                   config_.buffer_capacity, s1_end, now, plan.suppliers,
                                   plan.scratch, plan.candidates);
  // Nothing to schedule: return before the strategy draws from p.rng.
  if (plan.candidates.empty()) return;

  ScheduleContext ctx;
  ctx.now = now;
  ctx.period = config_.tau;
  ctx.playback_rate = config_.playback_rate;
  ctx.inbound_rate = p.in_budget.rate();
  ctx.id_play = p.playback_anchor();
  ctx.q_consecutive = config_.q_consecutive;
  ctx.q_startup = config_.q_startup;
  ctx.buffer_capacity = config_.buffer_capacity;
  ctx.max_requests = p.in_budget.whole();
  ctx.rng = &p.rng;
  plan.split_active = boundary_known && !p.sw_prepared;
  if (plan.split_active) {
    plan.s1_end = s1_end;
    ctx.s1_end = plan.s1_end;
    ctx.s2_begin = ctx.s1_end + 1;
    ctx.q1_remaining = p.q1_missing;
    ctx.q2_remaining = p.q2_missing;
  }
  plan.requests = strategy_->schedule(ctx, plan.candidates);
  // The SchedulerStrategy contract: the build's ascending id order survives
  // the call, so tick_commit's supplier fallback can binary-search it.
  GS_DCHECK(std::is_sorted(plan.candidates.begin(), plan.candidates.end(),
                           [](const CandidateSegment& a, const CandidateSegment& b) {
                             return a.id < b.id;
                           }))
      << "strategy " << strategy_->name()
      << " reordered the candidates of peer " << p.id;
}

void Engine::tick_commit(PeerNode& p, double now, TickPlan& plan) {
  // Supplier fallback on rejection (the strategy names one supplier per
  // segment; a saturated supplier should not cost the whole period when an
  // alternate neighbour also holds the segment).  The candidate walk emits
  // ascending ids and strategies leave that order alone, so the fallback
  // lookup is a binary search — no index to build, no steady-state
  // allocation.
  for (const ScheduledRequest& r : plan.requests) {
    if (p.in_budget.whole() == 0) break;
    if (issue_one(p, r.id, r.supplier, now, plan)) continue;
    const auto it = std::lower_bound(
        plan.candidates.begin(), plan.candidates.end(), r.id,
        [](const CandidateSegment& c, SegmentId id) { return c.id < id; });
    GS_CHECK(it != plan.candidates.end() && it->id == r.id)
        << "request for segment " << r.id << " of peer " << p.id
        << " names no candidate of its plan";
    for (const SupplierView& alt : it->suppliers) {
      if (alt.node == r.supplier) continue;
      if (issue_one(p, r.id, alt.node, now, plan)) break;
    }
  }
}

void Engine::finish_tick(PeerNode& p, double now, const TickPlan& plan) {
  stats_.availability_probes += plan.probes;
  if (!plan.candidates.empty()) {
    ++stats_.plans_built;
    if (plan.split_active) {
      ++stats_.split_ticks;
      for (const ScheduledRequest& r : plan.requests) {
        if (r.id > plan.s1_end) {
          ++stats_.new_stream_requests;
        } else {
          ++stats_.old_stream_requests;
        }
      }
    }
    stats_.candidates_offered += plan.candidates.size();
    stats_.requests_scheduled += plan.requests.size();
  }
  stats_.requests_issued += plan.issued;
  stats_.requests_rejected += plan.rejected;
  // WireFormat::request_bits is linear in the count: one charge per tick
  // equals one per request.
  overhead_.charge_request(plan.issued);
  // The simulator hands out global sequence numbers in call order, so
  // posting the staged deliveries here, in issue order and member order,
  // gives the event stream the sequential engine always had.
  for (const StagedDelivery& d : plan.staged) post_delivery(p.id, d.id, d.deliver_at, now);
  if (cdn_) cdn_assist_tick(p, now);
}

void Engine::run_parallel_sweep(const std::vector<std::uint32_t>& members, double now) {
  const std::size_t n = members.size();
  ++stats_.parallel_sweeps;
  // The wave only bounds the plan slots held at once: any wave size yields
  // identical results, and a whole scale-grain sweep as one wave holds a
  // slot (candidates and supplier store) per member, which costs peak RSS
  // for no resolved gain in sim time.  Each wave still carries >= 16 plans
  // per lane.  It is keyed on the configured shard count (capped at the
  // delivery drain's kMaxDataShards), not on the lane count, so the commit
  // diagnostics do not depend on the machine's core count.
  const std::size_t wave =
      std::max<std::size_t>(32, 16 * std::min(config_.parallel_shards, kMaxDataShards));
  if (batch_plans_.size() < std::min(n, wave)) batch_plans_.resize(std::min(n, wave));
  for (std::size_t base = 0; base < n; base += wave) {
    const std::size_t count = std::min(wave, n - base);
    // Pre, in member order: all cross-peer-visible writes of a tick
    // (availability adverts, boundary learning, playback/metric
    // bookkeeping) happen here with exactly the interleaving the
    // per-member sweep would produce (nothing a plan or commit reads is
    // written by pre, so running the wave's pres ahead of them is
    // invisible).
    for (std::size_t i = 0; i < count; ++i) {
      batch_plans_[i].live = tick_pre(peers_[members[base + i]], now);
    }
    commit_wave(members, base, count, now);
  }
}

void Engine::commit_wave(const std::vector<std::uint32_t>& members, std::size_t base,
                         std::size_t count, double now) {
  // Colour by supplier contention, before anything plans.  A slot's
  // contention set is its neighbour list: every supplier its plan's
  // queue-delay reads and its commit's capacity writes can touch.  A member
  // that will not plan (no tick, or no whole budget unit: tick_plan returns
  // before the build) touches none, and per-link capacity is
  // requester-keyed, so those sets are empty.  The slot's candidates still
  // hold the previous wave's build, so they must not be read here.
  const bool shared = transfers_.supplier_shared();
  colouring_.colour_wave(
      count, peers_.size(), [&](std::size_t i) -> std::span<const net::NodeId> {
        const PeerNode& p = peers_[members[base + i]];
        if (!shared || !batch_plans_[i].live || p.in_budget.whole() == 0) return {};
        return graph_.neighbors(p.id);
      });
  stats_.commit_colour_classes += colouring_.classes;
  if (class_slots_.size() < colouring_.classes) class_slots_.resize(colouring_.classes);
  for (std::uint32_t c = 0; c < colouring_.classes; ++c) class_slots_[c].clear();
  for (std::size_t i = 0; i < count; ++i) {
    class_slots_[colouring_.colour[i]].push_back(static_cast<std::uint32_t>(i));
  }

  // Plan and commit, one class at a time on the lanes.  This is exact: the
  // layered rule puts every member that shares a supplier with member j in
  // an earlier class if it precedes j in member order and in a later class
  // if it follows, and members of one class share no supplier — so every
  // plan reads exactly the backlog the sequential engine shows it, and the
  // commits and jitter draws land member-locally.  Deliveries stage into
  // the plan and counters defer.
  for (std::uint32_t c = 0; c < colouring_.classes; ++c) {
    const std::vector<std::uint32_t>& slots = class_slots_[c];
    util::global_pool().run_batch(
        slots.size(), lanes_, [this, &members, base, &slots, now](std::size_t k) {
          const std::uint32_t i = slots[k];
          TickPlan& plan = batch_plans_[i];
          if (!plan.live) return;
          PeerNode& p = peers_[members[base + i]];
          tick_plan(p, now, plan);
          tick_commit(p, now, plan);
        });
  }

  // Final drain, member order: the finish step the sequential tick runs.
  // The CDN step interleaves per member exactly like the sequential tick;
  // deferring it behind the whole wave's capacity commits is invisible
  // because it reads only sweep-stable state, the member's own slot and
  // the CDN's private ledger.
  for (std::size_t i = 0; i < count; ++i) {
    const TickPlan& plan = batch_plans_[i];
    if (!plan.live) continue;
    if (plan.planned) ++stats_.parallel_commits;
    finish_tick(peers_[members[base + i]], now, plan);
  }
}

void Engine::snapshot_and_learn(PeerNode& p) {
  // Every neighbour is alive (a leaver is isolated before anything reads
  // the graph again), so the adjacency is the exchange's receiver set, and
  // the maps' headers carry each neighbour's known boundary.
  const std::span<const net::NodeId> neighbors = graph_.neighbors(p.id);
  if (config_.delta_maps) {
    advert_availability(p, neighbors.size());
  } else {
    overhead_.charge_buffer_map_exchanges(neighbors.size());
  }
  int boundary = -1;
  for (const net::NodeId nb : neighbors) {
    boundary = std::max(boundary, peers_[nb].known_boundary);
  }
  if (boundary > p.known_boundary) learn_boundaries(p, boundary, sim_.now());
}

void Engine::advert_availability(PeerNode& p, std::size_t receivers) {
  const gossip::WireFormat& wire = overhead_.wire();
  const std::size_t window = wire.buffer_window_bits;
  // The advert runs in the sequential pre phase, so one engine-wide scratch
  // map serves every peer: build into it, diff, then swap it with the
  // peer's advertised map (both keep their bit-storage capacity, so the
  // steady state allocates nothing).
  p.buffer.build_map_into(window, advert_scratch_);
  // Full map on the first advert and every map_refresh_period-th one
  // (receivers resynchronise), or when the delta would not pay for itself.
  bool refresh = p.advertised_map.window() != window ||
                 p.adverts_since_refresh + 1 >= config_.map_refresh_period;
  gossip::BufferMapDelta delta;
  if (!refresh) {
    delta = gossip::BufferMapDelta::diff(p.advertised_map, advert_scratch_);
    // Judge "delta beats full map" in the same wire model that gets
    // charged.
    refresh = !delta.encodable() ||
              wire.buffer_map_delta_bits(delta.runs().size()) >= wire.buffer_map_bits();
  }
  if (refresh) {
    overhead_.charge_buffer_map_exchanges(receivers);
    p.adverts_since_refresh = 0;
    ++stats_.full_map_adverts;
  } else {
    overhead_.charge_buffer_map_delta(delta.runs().size(), receivers);
    ++p.adverts_since_refresh;
    ++stats_.delta_adverts;
  }
  std::swap(p.advertised_map, advert_scratch_);
}

bool Engine::issue_one(PeerNode& p, SegmentId id, net::NodeId supplier, double now,
                       TickPlan& plan) {
  GS_CHECK_LT(supplier, peers_.size());
  const PeerNode& s = peers_[supplier];
  // The capacity commit and the jitter draw are member-safe on a lane
  // (same-class supplier sets are disjoint; the rng is the member's own);
  // the simulator event and the global counters wait for finish_tick.
  StagedDelivery d;
  if (!s.alive || !s.buffer.contains(id) ||
      !transfers_.request_staged(p, s, now, d.deliver_at)) {
    ++plan.rejected;
    return false;
  }
  d.id = id;
  plan.staged.push_back(d);
  ++plan.issued;
  p.in_budget.spend(1.0);
  p.pending.set(id, now + config_.pending_timeout);
  return true;
}

// ----------------------------------------------------------- CDN assist ---
//
// Runs last in finish_tick in both dispatch paths, so patch requests consume
// only the inbound budget the gossip scheduler left this period: under
// budget_carry = 1 that remainder is use-it-or-lose-it, so the patch
// stream fills the idle tail of the peer's inbound link instead of
// displacing gossip pulls.  Requested ids enter p.pending like any gossip
// request, so the scheduler never double-requests a patched segment, and
// deliveries run through deliver_segment — q2 progress, prepared times and
// playback flow exactly as for swarm data.

void Engine::cdn_assist_tick(PeerNode& p, double now) {
  CdnAssistPlane::PeerView view;
  const int k = p.active_switch;
  SegmentId begin = 0;
  SegmentId end = kNoSegment;
  if (k >= 0 && p.known_boundary >= k && !p.sw_prepared) {
    view.switch_index = k;
    const SegmentId anchor = p.playback_anchor();
    view.rest_play_s = static_cast<double>(next_missing(p.received, anchor) - anchor) /
                       config_.playback_rate;
    begin = timeline_.session(static_cast<std::size_t>(k)).last + 1;
    auto span = static_cast<SegmentId>(required_prefix(k));
    if (config_.cdn_assist_span > 0) {
      span = std::min<SegmentId>(span, static_cast<SegmentId>(config_.cdn_assist_span));
    }
    end = begin + span - 1;
    // Hand off only once the whole patch window exists and every missing
    // id in it has an alive gossip supplier — before the new source has
    // generated that far, the swarm cannot yet take over.
    view.suppliers_cover =
        timeline_.next_id() - 1 >= end && cdn_window_covered(p, begin, end);
  }
  if (!cdn_->control(p.id, view, now)) return;
  const SegmentId head = std::min<SegmentId>(end, timeline_.next_id() - 1);
  for (SegmentId id = begin; id <= head; ++id) {
    if (p.in_budget.whole() == 0) break;
    if (p.has_received(id)) continue;
    const double* retry_at = p.pending.find(id);
    if (retry_at != nullptr && *retry_at > now) continue;
    double deliver_at = 0.0;
    if (!cdn_->request(p.id, now, deliver_at)) break;  // CDN backlog past the horizon
    sim_.after(deliver_at - now, patch_sink_, p.id, static_cast<std::uint64_t>(id));
    overhead_.charge_request(1);
    p.in_budget.spend(1.0);
    p.pending.set(id, now + config_.pending_timeout);
  }
}

bool Engine::cdn_window_covered(const PeerNode& p, SegmentId begin, SegmentId end) const {
  // Only assisting mid-switch peers pay this scan, and only until their
  // handoff.
  for (SegmentId id = begin; id <= end; ++id) {
    if (p.has_received(id)) continue;
    bool supplied = false;
    for (const net::NodeId nb : graph_.neighbors(p.id)) {
      if (peers_[nb].buffer.contains(id)) {
        supplied = true;
        break;
      }
    }
    if (!supplied) return false;
  }
  return true;
}

// ----------------------------------------------------------- data path ---

void Engine::post_delivery(net::NodeId to, SegmentId id, double deliver_at, double now) {
  // One pooled event per transfer.  Deliveries land within accept_horizon +
  // latency of now, so this is an O(1) append into a near-wheel bucket at
  // most a few quanta ahead (or a side-heap push when due before the next
  // tick boundary) — the hot path the timing wheel exists for.  The delay
  // form is part of the fixed-seed contract: now + (deliver_at - now) may
  // differ from deliver_at in the last bit.
  sim_.after(deliver_at - now, delivery_sink_, to, static_cast<std::uint64_t>(id));
}

void Engine::on_delivery(net::NodeId to, SegmentId id) {
  PeerNode& p = peers_[to];
  p.pending.erase(id);
  if (!p.alive) return;  // left while the segment was in flight
  // count_wire: a swarm or CDN-patched segment is real data over the wire —
  // it feeds the overhead-ratio denominator and segments_delivered (the CDN
  // byte-cost is tallied separately, by patch_sink_).
  deliver_segment(p, id, sim_.now(), /*count_wire=*/true);
}

void Engine::deliver_segment(PeerNode& p, SegmentId id, double now, bool count_wire) {
  if (!p.mark_received(id)) {
    ++stats_.duplicates;
    return;
  }
  deliver_bookkeeping(p, id, now, count_wire);
}

void Engine::deliver_bookkeeping(PeerNode& p, SegmentId id, double now, bool count_wire) {
  // Book phase: the wire counters are globally ordered side effects — the
  // tail replays them per item in pop order.
  if (count_wire && !book_phase_) {
    overhead_.charge_data_segment();
    ++stats_.segments_delivered;
  }

  // Segments of session k announce the end of session k-1 (§3).
  const SessionIndex session = timeline_.session_of(id);
  if (session > 0 && p.known_boundary < session - 1) learn_boundaries(p, session - 1, now);

  // Startup rule bookkeeping: extend the contiguous run from start_id.
  if (id >= p.start_id) p.extend_start_run();

  if (!p.is_source) {
    on_switch_progress(p, id, now);
    maybe_start_playback(p, now);
    p.playback.notify_arrival(id, now);
    advance_playback(p, now);
    if (config_.push_fresh_segments && count_wire) push_to_neighbors(p, id, now);
  }
}

void Engine::on_delivery_batch(const sim::PooledBatchItem* items, std::size_t count) {
  // A single-event run degenerates to the inline pop (the simulator's
  // clock already sits at the item's time).
  if (count == 1) {
    on_delivery(static_cast<net::NodeId>(items[0].a), static_cast<SegmentId>(items[0].b));
    return;
  }
  ++stats_.delivery_batches;
  const std::size_t shards = data_shards_;

  // Partition into per-shard delivery lists (pop order preserved within a
  // list; every delivery of one peer lands in that peer's shard list, so a
  // peer with several deliveries in the run has its marks interleave with
  // its bookkeeping exactly as inline).
  for (std::vector<std::uint32_t>& list : shard_entries_) list.clear();
  batch_outcomes_.assign(count, MarkOutcome::kDead);
  for (std::size_t i = 0; i < count; ++i) {
    const auto to = static_cast<net::NodeId>(items[i].a);
    shard_entries_[to % shards].push_back(static_cast<std::uint32_t>(i));
  }

  // Book wave: lane s drains shard s's items strictly in pop order —
  // pending erase, buffer mark, and for fresh deliveries the full per-peer
  // bookkeeping (boundary learning, switch progress, playback), all of
  // which writes only the target peer's own state.  book_phase_ reroutes
  // the globally ordered side effects — wire counters, metric pushes,
  // experiment completion — into the lane's BookEvent log, keyed by the
  // item being drained.
  for (std::vector<BookEvent>& log : book_events_) log.clear();
  book_phase_ = true;
  util::global_pool().run_batch(shards, lanes_, [this, items](std::size_t s) {
    for (const std::uint32_t idx : shard_entries_[s]) {
      book_current_item_[s] = idx;
      const auto to = static_cast<net::NodeId>(items[idx].a);
      const auto id = static_cast<SegmentId>(items[idx].b);
      PeerNode& p = peers_[to];
      p.pending.erase(id);
      if (!p.alive) continue;  // left while the segment was in flight
      if (!p.mark_received(id)) {
        // The duplicate counters are globally ordered — tail work.
        batch_outcomes_[idx] = MarkOutcome::kDuplicate;
        continue;
      }
      batch_outcomes_[idx] = MarkOutcome::kFresh;
      deliver_bookkeeping(p, id, items[idx].at, /*count_wire=*/true);
    }
  });
  book_phase_ = false;

  // Sequential tail, global pop order: the walk replays the wire counters
  // and metric pushes exactly as the inline pops would, stopping where the
  // inline order stops.  Item i's events sit at the front of the unread
  // part of its target shard's log: each log is in item order, and every
  // earlier item of that shard has been replayed.  The completing item's
  // own events all replay (inline, the call stack finishes its item before
  // the pop loop sees the stop flag).
  std::array<std::size_t, kMaxDataShards> cursor{};
  for (std::size_t i = 0; i < count && !experiment_done_; ++i) {
    const auto to = static_cast<net::NodeId>(items[i].a);
    switch (batch_outcomes_[i]) {
      case MarkOutcome::kDuplicate:
        ++stats_.duplicates;
        break;
      case MarkOutcome::kFresh:
        overhead_.charge_data_segment();
        ++stats_.segments_delivered;
        break;
      default:
        break;
    }
    const std::size_t s = to % shards;
    const std::vector<BookEvent>& log = book_events_[s];
    for (; cursor[s] < log.size() && log[cursor[s]].item == i; ++cursor[s]) {
      apply_switch_event(log[cursor[s]]);
    }
  }
  // Phase work past a stop raises no finished/prepared flag the inline
  // order never reaches: the stop closes the last switch, so every tracked
  // peer has already finished and prepared or been censored, and only s2
  // starts can sit unreplayed behind it.  (The other post-stop phase
  // effects — buffer marks, playback, gates — are unobservable: nothing
  // reads them after the stop.)  Without a stop every log is consumed.
  for (std::size_t s = 0; s < shards; ++s) {
    GS_DCHECK(std::all_of(book_events_[s].begin() + static_cast<std::ptrdiff_t>(cursor[s]),
                          book_events_[s].end(), [](const BookEvent& e) {
                            return e.kind == BookEvent::Kind::kS2Start;
                          }));
  }
}

void Engine::push_to_neighbors(PeerNode& p, SegmentId id, double now) {
  // GridMedia-style relay: forward a fresh segment to random neighbours
  // that lack it.  Costs outbound capacity and
  // data bits; duplicates arriving concurrently are counted as redundancy.
  const auto neighbors = graph_.neighbors(p.id);
  if (neighbors.empty()) return;
  std::vector<net::NodeId> lacking;
  for (const net::NodeId nb : neighbors) {
    const PeerNode& n = peers_[nb];
    if (n.alive && !n.buffer.contains(id)) lacking.push_back(nb);
  }
  p.rng.shuffle(lacking);
  std::size_t pushed = 0;
  for (const net::NodeId nb : lacking) {
    if (pushed >= config_.push_fanout) break;
    double deliver_at = 0.0;
    if (!transfers_.push(p, nb, now, deliver_at)) break;  // own uplink saturated
    post_delivery(nb, id, deliver_at, now);
    ++stats_.segments_pushed;
    ++pushed;
  }
}

// --------------------------------------------------- switch bookkeeping ---

void Engine::learn_boundaries(PeerNode& p, int up_to, double now) {
  if (up_to <= p.known_boundary) return;
  p.known_boundary = up_to;
  if (p.is_source) return;
  if (p.active_switch >= 0 && up_to >= p.active_switch && !p.gate_armed &&
      p.playback.gate() == kNoSegment) {
    const SegmentId gate_id =
        timeline_.session(static_cast<std::size_t>(p.active_switch)).last + 1;
    if (!p.playback.started() || p.playback.cursor() <= gate_id) {
      p.playback.set_gate(gate_id);
      p.gate_armed = true;
      maybe_release_gate(p, now);
    } else {
      p.gate_armed = true;  // already past the boundary; nothing to gate
    }
  }
}

void Engine::on_switch_progress(PeerNode& p, SegmentId id, double now) {
  if (p.active_switch < 0) return;
  const int k = p.active_switch;
  const Session& old = timeline_.session(static_cast<std::size_t>(k));
  if (id >= p.sw_lo && id <= old.last) {
    if (p.q1_missing > 0) --p.q1_missing;
  } else if (id > old.last) {
    const SegmentId begin = old.last + 1;
    if (id < begin + static_cast<SegmentId>(required_prefix(k)) && p.q2_missing > 0) {
      --p.q2_missing;
      if (p.q2_missing == 0) record_prepared(p, k, now);
    }
  }
  maybe_release_gate(p, now);
}

void Engine::maybe_release_gate(PeerNode& p, double now) {
  if (!p.gate_armed || p.playback.gate() == kNoSegment) return;
  const int k = p.active_switch;
  GS_CHECK_GE(k, 0);
  bool ready = p.q2_missing == 0;
  if (!ready && timeline_.session(static_cast<std::size_t>(k) + 1).ended()) {
    // Short final session: release once everything that exists arrived.
    const Session& next = timeline_.session(static_cast<std::size_t>(k) + 1);
    ready = p.count_missing(next.first, next.last) == 0;
  }
  if (ready) p.playback.release_gate(now);
}

void Engine::maybe_start_playback(PeerNode& p, double now) {
  if (p.is_source || p.playback.started()) return;
  if (p.start_run >= config_.q_consecutive) {
    p.playback.start(p.start_id, now);
    advance_playback(p, now);
  }
}

void Engine::advance_playback(PeerNode& p, double now) {
  if (!p.playback.started()) return;
  p.playback.advance(
      now, [&p](SegmentId id) { return p.has_received(id); },
      [this, &p](SegmentId id, double play_time) {
        const int end_switch = timeline_.switch_ending_at(id);
        if (end_switch >= 0) record_finish(p, end_switch, play_time);
        const int start_switch = timeline_.switch_ending_at(id - 1);
        if (start_switch >= 0 && p.tracked && p.active_switch == start_switch) {
          land_switch_event(p, {0, BookEvent::Kind::kS2Start, start_switch, play_time});
        }
      });
}

void Engine::record_finish(PeerNode& p, int switch_index, double play_time) {
  if (p.sw_finished || p.active_switch != switch_index) return;
  p.sw_finished = true;
  if (p.tracked) land_switch_event(p, {0, BookEvent::Kind::kFinish, switch_index, play_time});
}

void Engine::record_prepared(PeerNode& p, int switch_index, double now) {
  if (p.sw_prepared || p.active_switch != switch_index) return;
  p.sw_prepared = true;
  if (p.tracked) land_switch_event(p, {0, BookEvent::Kind::kPrepared, switch_index, now});
}

void Engine::land_switch_event(const PeerNode& p, BookEvent event) {
  if (!book_phase_) {
    apply_switch_event(event);
    return;
  }
  // Split book phase: the peer's flag transitions are this lane's (it owns
  // the peer); the metric push and the stop check are globally ordered, so
  // they wait in the lane's log for the tail.
  const std::size_t s = p.id % data_shards_;
  event.item = book_current_item_[s];
  book_events_[s].push_back(event);
}

void Engine::apply_switch_event(const BookEvent& event) {
  SwitchMetrics& m = timeline_.metrics(event.sw);
  switch (event.kind) {
    case BookEvent::Kind::kFinish:
      m.finish_times.push_back(event.time - m.switch_time);
      ++m.finished_s1;
      check_experiment_complete();
      break;
    case BookEvent::Kind::kPrepared:
      m.prepared_times.push_back(event.time - m.switch_time);
      ++m.prepared_s2;
      check_experiment_complete();
      break;
    case BookEvent::Kind::kS2Start:
      m.s2_start_times.push_back(event.time - m.switch_time);
      break;
  }
}

void Engine::check_experiment_complete() {
  if (experiment_done_) return;
  if (timeline_.experiment_complete()) {
    experiment_done_ = true;
    sim_.stop();
  }
}

}  // namespace gs::stream
