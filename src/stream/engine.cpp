// Orchestration: the per-tick pipeline, the data path and the switch
// bookkeeping that spans subsystems.  Setup, churn and the run loop live in
// engine_lifecycle.cpp.
#include "stream/engine.hpp"

#include <algorithm>
#include <thread>

#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace gs::stream {

Engine::Engine(net::Graph graph, net::LatencyModel latency, EngineConfig config,
               std::shared_ptr<SchedulerStrategy> strategy)
    : graph_(std::move(graph)),
      latency_(std::move(latency)),
      config_(std::move(config)),
      // The timing wheel is quantized at the tick cadence: gossip sweeps
      // land on bucket boundaries and deliveries fill the current-period
      // bucket, so scheduling is a bucket append and pops walk pre-sorted
      // buckets.
      sim_(-config_.warmup, config_.tau),
      overhead_(config_.wire),
      membership_(graph_, config_.membership_degree,
                  util::Rng(config_.seed).fork(util::hash_name("membership")), &overhead_),
      transfers_(sim_, latency_, config_.supplier_capacity, config_.accept_horizon,
                 [this](net::NodeId to, SegmentId id) { on_delivery(to, id); },
                 config_.token_bucket_burst),
      ticker_(sim_, config_.tau,
              [this](const std::vector<std::uint32_t>& members, double now) {
                // The sharded core takes whole sweeps: pre in member order,
                // plan on the pool, then the commit wave (same per-member
                // semantics as the sequential loop).
                if (config_.parallel_shards > 0) {
                  run_parallel_sweep(members, now);
                  return;
                }
                for (const std::uint32_t member : members) tick(peers_[member], now);
              }),
      churn_rng_(util::Rng(config_.seed).fork(util::hash_name("churn"))),
      setup_rng_(util::Rng(config_.seed).fork(util::hash_name("setup"))) {
  GS_CHECK(strategy != nullptr);
  strategies_.push_back(std::move(strategy));
  GS_CHECK_EQ(latency_.node_count(), graph_.node_count());
  if (config_.parallel_shards > 0) {
    // The delivery drain partitions peers by id % shards, in at most 64
    // per-shard lists.
    const std::size_t shards = std::min<std::size_t>(config_.parallel_shards, 64);
    // The batched delivery drain: consecutive delivery events pop as one
    // batch and drain through the book/tail passes; same-timestamp
    // tick sweeps super-batch through BatchTicker::on_batch.  Fresh-segment
    // push reads neighbour buffers and schedules transfers per delivery,
    // which only the inline pop order reproduces — the drain stands down.
    if (!config_.push_fresh_segments) {
      data_shards_ = shards;
      shard_entries_.resize(shards);
      book_events_.resize(shards);
      book_current_item_.assign(shards, 0);
      transfers_.set_delivery_batch(
          [this](const sim::PooledBatchItem* items, std::size_t count) {
            on_delivery_batch(items, count);
          });
      sim_.enable_batch_pop(true);
    }
    // One bump arena and one build scratch per lane: the sweep's candidate
    // supplier lists stop falling back to the heap (the zero-allocation
    // steady state covers the parallel lanes).  Arenas reset at wave starts
    // only.  Lanes beyond the hardware threads only thrash the scheduler,
    // and results never depend on the lane count, so every parallel pass
    // runs on lane_arenas_.size() lanes.
    const std::size_t lanes = std::min<std::size_t>(
        config_.parallel_shards, std::max<std::size_t>(1, std::thread::hardware_concurrency()));
    lane_arenas_.reserve(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      lane_arenas_.push_back(std::make_unique<util::Arena>());
    }
    lane_scratch_.resize(lanes);
  }
  if (config_.cdn_assist) {
    // The CDN uplink runs the engine's configured contention policy over
    // the plane's own state; its (non-batchable) delivery events pop in the
    // global (time, sequence) order like every other event.
    CdnAssistConfig cdn_config;
    cdn_config.rate = config_.cdn_assist_rate;
    cdn_config.latency_ms = config_.cdn_assist_latency_ms;
    cdn_config.accept_horizon = config_.cdn_assist_horizon;
    cdn_config.pause_lead_s = config_.cdn_assist_pause_s;
    cdn_config.resume_lead_s = config_.cdn_assist_resume_s;
    cdn_config.capacity = config_.supplier_capacity;
    cdn_config.token_bucket_burst = config_.token_bucket_burst;
    cdn_config.data_bits = config_.wire.data_bits();
    cdn_ = std::make_unique<CdnAssistPlane>(
        sim_, cdn_config, [this](net::NodeId to, SegmentId id) { on_cdn_delivery(to, id); });
  }
  // Warm-up traffic is outside the paper's measurement window.
  overhead_.set_enabled(false);
}

Engine::~Engine() {
  // Drop the pending set before the sink-owning members go: the ticker's
  // and the periodic tasks' destructor cancels then find an empty queue
  // instead of each scanning every pending event (quadratic teardown).
  sim_.clear();
}

void Engine::set_sources(std::vector<net::NodeId> sources, std::vector<double> switch_times) {
  timeline_.set_sources(graph_.node_count(), std::move(sources), std::move(switch_times));
}

const PeerNode& Engine::peer(net::NodeId v) const {
  GS_CHECK_LT(v, peers_.size());
  return peers_[v];
}

void Engine::start_session(SessionIndex k) {
  timeline_.session(static_cast<std::size_t>(k)).start_time = sim_.now();
  const double interval = 1.0 / config_.playback_rate;
  generation_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, sim_.now(), interval, [this, k](double now) { generate_segment(k, now); });
}

void Engine::generate_segment(SessionIndex k, double now) {
  const SegmentId announce =
      k > 0 ? timeline_.session(static_cast<std::size_t>(k) - 1).last : kNoSegment;
  const SegmentId id = registry_.append(k, now, announce);
  Session& session = timeline_.session(static_cast<std::size_t>(k));
  if (session.first == kNoSegment) session.first = id;
  ++stats_.segments_generated;
  PeerNode& src = peers_[session.source];
  // Locally generated: fills the buffer/availability but is not wire data.
  deliver_segment(src, id, now, /*count_wire=*/false);
}

void Engine::schedule_switch(int switch_index) {
  sim_.at(timeline_.switch_times()[static_cast<std::size_t>(switch_index)], switch_sink_,
          static_cast<std::uint64_t>(switch_index), 0);
}

void Engine::run_switch(int switch_index) {
  const double now = sim_.now();
  timeline_.begin_switch(switch_index, now, registry_.next_id() - 1);
  generation_task_->cancel();

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
// One tick = pre + plan + commit.  The sequential path (tick) runs the
// three phases back to back per peer, which is byte-for-byte the historical
// tick; the sharded sweep (run_parallel_sweep) runs pre for every member of
// a wave in order, plans them concurrently, then commits them in the commit
// wave — with the plan-staleness check bridging the only cross-member data
// flow a sweep has (capacity commits feeding later members' queue-delay
// reads).

void Engine::tick(PeerNode& p, double now) {
  if (!tick_pre(p, now)) return;
  // Sequential dispatch reuses one plan slot, so the prior tick's supplier
  // lists are dead and the arena can rewind before this tick's candidate
  // build fills it.  (Parallel waves reset their lane arenas at wave start
  // instead — a lane's earlier plans must survive to their commit.)
  plan_arena_.reset();
  plan_seq_.arena = &plan_arena_;
  plan_seq_.scratch = &plan_scratch_;
  tick_plan(p, now, plan_seq_);
  tick_commit(p, now, plan_seq_, /*validate=*/false);
  if (cdn_) cdn_assist_tick(p, now);
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
  plan.rng_before = p.rng;
  plan.stamp = capacity_commits_;
  // Ids past the old stream's last one are new-stream candidates once the
  // peer knows the active switch's boundary.
  const bool boundary_known = p.active_switch >= 0 && p.known_boundary >= p.active_switch;
  const SegmentId s1_end =
      boundary_known ? timeline_.session(static_cast<std::size_t>(p.active_switch)).last
                     : kNoSegment;
  // Probes are folded at commit: the build may run on a pool thread.
  plan.probes = collect_candidates(p, graph_.neighbors(p.id), peers_, transfers_,
                                   config_.buffer_capacity, s1_end, now, plan.arena,
                                   *plan.scratch, plan.candidates);
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
  plan.requests = strategies_[p.strategy_index]->schedule(ctx, plan.candidates);
  // The SchedulerStrategy contract: the build's ascending id order survives
  // the call, so tick_commit's supplier fallback can binary-search it.
  GS_DCHECK(std::is_sorted(plan.candidates.begin(), plan.candidates.end(),
                           [](const CandidateSegment& a, const CandidateSegment& b) {
                             return a.id < b.id;
                           }))
      << "strategy " << strategies_[p.strategy_index]->name()
      << " reordered the candidates of peer " << p.id;
}

void Engine::fold_plan_counters(const TickPlan& plan) {
  stats_.availability_probes += plan.probes;
  if (plan.candidates.empty()) return;
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
  candidates_seen_ += plan.candidates.size();
  scheduled_seen_ += plan.requests.size();
}

bool Engine::plan_is_stale(const PeerNode& p, const TickPlan& plan) const {
  if (dirty_supplier_.empty() || !transfers_.supplier_shared()) return false;
  // The plan's queue-delay reads covered (a subset of) the alive
  // neighbours; per-link capacity can never conflict (requester-keyed).
  for (const net::NodeId nb : graph_.neighbors(p.id)) {
    if (dirty_supplier_[nb] > plan.stamp) return true;
  }
  return false;
}

void Engine::tick_commit(PeerNode& p, double now, TickPlan& plan, bool validate) {
  if (!plan.planned) return;
  if (validate && !plan.candidates.empty() && plan_is_stale(p, plan)) {
    // An earlier member committed capacity on a supplier this plan read:
    // its queue-delay estimates (and therefore the strategy's choices and
    // rng draws) may differ from what the sequential order would produce.
    // Nothing may issue from here — the class barrier's fixup drain
    // re-plans this member sequentially, where the live plane state it
    // observes is exactly the sequential prefix.
    plan.fixup = true;
    return;
  }
  // Stage mode folds every global counter at the wave's final drain, from
  // the plan's final contents (a fixup re-plan overwrites them first, so
  // the fold always matches the sequential charge).
  if (!plan.stage) fold_plan_counters(plan);
  if (plan.candidates.empty()) return;

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

void Engine::run_parallel_sweep(const std::vector<std::uint32_t>& members, double now) {
  const std::size_t n = members.size();
  ++stats_.parallel_sweeps;
  if (dirty_supplier_.size() < peers_.size()) dirty_supplier_.resize(peers_.size(), 0);
  const std::size_t lanes = lane_arenas_.size();
  // Wave size bounds the speculation window: a member's plan can only go
  // stale against commits of its *own* wave (earlier waves are already
  // committed when it plans), so the stale-replan rate scales with the
  // wave, while each wave still carries >= 16 plans per lane of parallel
  // work.  Any wave size yields identical results — valid plans equal the
  // sequential computation and stale ones are re-planned — so this is a
  // pure throughput knob.  It is keyed on the configured shard count
  // (capped at the delivery drain's 64), not on the lane count, so the
  // diagnostics the window drives (replanned ticks, commit classes and
  // fixups) do not depend on the machine's core count.
  const std::size_t wave =
      std::max<std::size_t>(32, 16 * std::min<std::size_t>(config_.parallel_shards, 64));
  if (batch_plans_.size() < std::min(n, wave)) batch_plans_.resize(std::min(n, wave));
  for (std::size_t base = 0; base < n; base += wave) {
    const std::size_t count = std::min(wave, n - base);
    // Rewind the lane arenas on the caller, behind the previous wave's
    // barrier: every plan of that wave is committed, so its candidate
    // lists are dead.  Never mid-wave — a lane plans several members per
    // wave and the earlier ones must survive to their commit.
    for (const std::unique_ptr<util::Arena>& a : lane_arenas_) a->reset();
    // Pre, in member order: all cross-peer-visible writes of a tick
    // (availability adverts, boundary learning, playback/metric
    // bookkeeping) happen here with exactly the interleaving the
    // per-member sweep would produce (nothing a plan reads is written by
    // pre, so running the wave's pres ahead of its plans is invisible).
    for (std::size_t i = 0; i < count; ++i) {
      batch_plans_[i].live = tick_pre(peers_[members[base + i]], now);
    }
    // Plan, in parallel: pure reads of shared state plus disjoint writes
    // (each member's own slot and rng).  Each lane bump-allocates supplier
    // lists from its own arena.  The pool may be saturated by outer
    // experiment sweeps — run_batch's caller lane guarantees progress.
    util::global_pool().run_batch(
        count, lanes, [this, &members, base, now](std::size_t i, std::size_t lane) {
          if (!batch_plans_[i].live) return;
          batch_plans_[i].arena = lane_arenas_[lane].get();
          batch_plans_[i].scratch = &lane_scratch_[lane];
          tick_plan(peers_[members[base + i]], now, batch_plans_[i]);
        });
    commit_wave(members, base, count, now);
  }
  // Warm-up fence for the zero-allocation telemetry: lane-arena chunks
  // allocated past the fence count as steady-state allocations.  The fence
  // is adaptive — it arms only after at least 16 sweeps AND 16 consecutive
  // sweeps with no chunk growth, and RE-ARMS whenever growth resumes — so
  // the ramp of the candidate working set (which at N=10^5 outlives a fixed
  // 16-sweep window) stays inside the warm-up count.  At run end an armed
  // fence therefore certifies a genuinely quiet tail (the last >= 16 sweeps
  // allocated nothing, arena_steady_chunks exactly 0); a fence still
  // unarmed reports arena_warm_chunks == 0, which the steady-state test
  // rejects as "the arenas never stopped growing".
  std::uint64_t total = 0;
  for (const std::unique_ptr<util::Arena>& a : lane_arenas_) {
    total += a->chunk_allocations();
  }
  if (total != arena_fence_last_chunks_) {
    arena_fence_last_chunks_ = total;
    arena_fence_quiet_sweeps_ = 0;
    arena_warm_marked_ = false;  // growth resumed: the lanes were not warm yet
  } else if (!arena_warm_marked_ && ++arena_fence_quiet_sweeps_ >= 16 &&
             stats_.parallel_sweeps >= 16) {
    arena_warm_marked_ = true;
    arena_warm_chunks_ = total;
  }
}

void Engine::commit_wave(const std::vector<std::uint32_t>& members, std::size_t base,
                         std::size_t count, double now) {
  // Colour by supplier contention.  A slot's contention set is exactly the
  // neighbour list plan_is_stale reads — it covers every supplier the plan's
  // queue-delay estimates touched and every capacity line its commit can
  // write, so same-colour slots neither race nor perturb each other's
  // staleness checks, and the layered rule (see commit_colouring.hpp) puts
  // every conflicting predecessor in an earlier class.  Per-link capacity
  // is requester-keyed — no conflicts, one class, no staleness.
  const bool shared = transfers_.supplier_shared();
  colouring_.colour_wave(
      count, peers_.size(), [&](std::size_t i) -> std::span<const net::NodeId> {
        const TickPlan& plan = batch_plans_[i];
        if (!shared || !plan.live || !plan.planned || plan.candidates.empty()) return {};
        return graph_.neighbors(members[base + i]);
      });
  stats_.commit_colour_classes += colouring_.classes;
  if (class_slots_.size() < colouring_.classes) class_slots_.resize(colouring_.classes);
  for (std::uint32_t c = 0; c < colouring_.classes; ++c) class_slots_[c].clear();
  const std::uint64_t wave_base = capacity_commits_;
  for (std::size_t i = 0; i < count; ++i) {
    class_slots_[colouring_.colour[i]].push_back(static_cast<std::uint32_t>(i));
    TickPlan& plan = batch_plans_[i];
    plan.stage = true;
    plan.fixup = false;
    plan.commit_stamp = wave_base + 1 + i;
  }

  for (std::uint32_t c = 0; c < colouring_.classes; ++c) {
    const std::vector<std::uint32_t>& slots = class_slots_[c];
    if (slots.empty()) continue;
    // The class commits on lanes: capacity commits and jitter draws land
    // member-locally (disjoint supplier sets within the class), deliveries
    // stage into the plan, counters defer.
    util::global_pool().run_batch(
        slots.size(), lane_arenas_.size(),
        [this, &members, base, &slots, now](std::size_t k, std::size_t /*lane*/) {
          const std::uint32_t i = slots[k];
          if (!batch_plans_[i].live || !batch_plans_[i].planned) return;
          tick_commit(peers_[members[base + i]], now, batch_plans_[i], /*validate=*/true);
        });
    // Fixup drain, member order within the class: a stale member rolls its
    // rng back and re-plans against the live plane (the candidate *set*
    // cannot change — buffers are stable in a sweep — only supplier
    // scores).  Its conflicting predecessors all sit in earlier classes
    // (layered colouring) and are fully committed — the state it observes
    // is exactly the sequential prefix — and same-class members touch none
    // of its suppliers, so draining between classes changes nothing they
    // see.
    for (const std::uint32_t i : slots) {
      TickPlan& plan = batch_plans_[i];
      if (!plan.fixup) continue;
      PeerNode& p = peers_[members[base + i]];
      p.rng = plan.rng_before;
      ++stats_.replanned_ticks;
      ++stats_.commit_conflict_fixups;
      tick_plan(p, now, plan);
      tick_commit(p, now, plan, /*validate=*/false);
    }
  }

  // Final drain, member order: fold the deferred counters from each plan's
  // final contents and post the staged delivery events — sim_.after hands
  // out global sequence numbers in call order, so the event stream is
  // byte-identical to the sequential tick's.  The CDN step interleaves
  // per member exactly like the sequential tick; deferring it behind the
  // whole wave's capacity commits is invisible because it reads only
  // sweep-stable state, the member's own slot and the CDN's private ledger.
  for (std::size_t i = 0; i < count; ++i) {
    TickPlan& plan = batch_plans_[i];
    plan.stage = false;
    if (!plan.live) continue;
    PeerNode& p = peers_[members[base + i]];
    if (plan.planned) {
      ++stats_.planned_ticks;
      if (!plan.fixup) ++stats_.parallel_commits;
      plan.fixup = false;
      fold_plan_counters(plan);
      stats_.requests_issued += plan.issued;
      stats_.requests_rejected += plan.rejected;
      if (plan.issued > 0) overhead_.charge_request(plan.issued);
      for (const StagedDelivery& d : plan.staged) {
        transfers_.schedule_delivery(p.id, d.id, d.deliver_at, now);
      }
    }
    if (cdn_) cdn_assist_tick(p, now);
  }
  // Advance the commit clock past every stamp this wave handed out, so the
  // next wave's plans (stamped with the new base) can never read one of
  // this wave's writes as stale.
  capacity_commits_ = wave_base + count;
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
  if (!config_.discover_via_maps) return;
  int boundary = -1;
  for (const net::NodeId nb : neighbors) {
    boundary = std::max(boundary, peers_[nb].known_boundary);
  }
  if (boundary > p.known_boundary) learn_boundaries(p, boundary, sim_.now());
}

void Engine::advert_availability(PeerNode& p, std::size_t receivers) {
  const std::size_t window = config_.wire.buffer_window_bits;
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
    // charged, so ablated delta framing sizes keep the rule honest.
    refresh = !delta.encodable() ||
              config_.wire.buffer_map_delta_bits(delta.runs().size()) >=
                  config_.wire.buffer_map_bits();
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
  PeerNode& s = peers_[supplier];
  if (plan.stage) {
    // Commit-lane issue: the capacity commit and jitter draw are
    // member-safe (colouring keeps same-class supplier sets disjoint; the
    // rng is the member's own); the simulator event and the global
    // counters defer to the wave's member-order drain.
    StagedDelivery d;
    if (!s.alive || !s.buffer.contains(id) ||
        !transfers_.request_staged(p, s, id, now, d.deliver_at)) {
      ++p.requests_rejected;
      ++plan.rejected;
      return false;
    }
    d.id = id;
    plan.staged.push_back(d);
    // Deterministic dirty stamp: wave base + 1 + member index.  Every
    // staleness comparison is `stamp_written > stamp_read` with the read
    // stamp at most the wave base, so any strictly-above-base value marks
    // the supplier dirty — and this one is the same no matter which lane
    // writes it.  Per-link capacity never reads these stamps
    // (plan_is_stale short-circuits); skipping the write keeps concurrent
    // same-supplier issues race-free.
    if (transfers_.supplier_shared()) dirty_supplier_[supplier] = plan.commit_stamp;
    ++plan.issued;
    p.in_budget.spend(1.0);
    p.pending.set(id, now + config_.pending_timeout);
    ++p.requests_issued;
    return true;
  }
  if (!s.alive || !s.buffer.contains(id) || !transfers_.request(p, s, id, now)) {
    ++p.requests_rejected;
    ++stats_.requests_rejected;
    return false;
  }
  overhead_.charge_request(1);
  p.in_budget.spend(1.0);
  p.pending.set(id, now + config_.pending_timeout);
  ++p.requests_issued;
  ++stats_.requests_issued;
  return true;
}

// ----------------------------------------------------------- CDN assist ---
//
// Runs after tick_commit in both dispatch paths, so patch requests consume
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
        registry_.next_id() - 1 >= end && cdn_window_covered(p, begin, end);
  }
  if (!cdn_->control(p.id, view, now)) return;
  const SegmentId head = std::min<SegmentId>(end, registry_.next_id() - 1);
  for (SegmentId id = begin; id <= head; ++id) {
    if (p.in_budget.whole() == 0) break;
    if (p.has_received(id)) continue;
    const double* retry_at = p.pending.find(id);
    if (retry_at != nullptr && *retry_at > now) continue;
    if (!cdn_->request(p.id, id, now)) break;  // CDN backlog past the horizon
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

void Engine::on_cdn_delivery(net::NodeId to, SegmentId id) {
  PeerNode& p = peers_[to];
  p.pending.erase(id);
  if (!p.alive) return;  // left while the patch was in flight
  // count_wire: a patched segment is real data over the wire — it feeds
  // the overhead-ratio denominator and segments_delivered like any swarm
  // delivery (the CDN byte-cost is tallied separately by the plane).
  deliver_segment(p, id, sim_.now(), /*count_wire=*/true);
}

// ----------------------------------------------------------- data path ---

void Engine::on_delivery(net::NodeId to, SegmentId id) {
  PeerNode& p = peers_[to];
  p.pending.erase(id);
  if (!p.alive) return;  // left while the segment was in flight
  deliver_segment(p, id, sim_.now(), /*count_wire=*/true);
}

void Engine::deliver_segment(PeerNode& p, SegmentId id, double now, bool count_wire) {
  if (!p.mark_received(id)) {
    ++p.duplicates_received;
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
  const SegmentInfo& info = registry_.info(id);
  if (info.session > 0 && p.known_boundary < info.session - 1) {
    learn_boundaries(p, info.session - 1, now);
  }

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
  const std::size_t lanes = lane_arenas_.size();

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
  util::global_pool().run_batch(shards, lanes, [this, items](std::size_t s, std::size_t /*lane*/) {
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

  // Sequential tail, global pop order: one stable sort puts the logged
  // events back into the batch's item order (within an item they are
  // already in call order — one item's events land contiguously in one
  // shard's log), then the walk replays the wire counters and metric
  // pushes exactly as the inline pops would, stopping where the inline
  // order stops.  The completing item's own events all replay (inline, the
  // call stack finishes its item before the pop loop sees the stop flag).
  book_merged_.clear();
  for (const std::vector<BookEvent>& log : book_events_) {
    book_merged_.insert(book_merged_.end(), log.begin(), log.end());
  }
  std::stable_sort(book_merged_.begin(), book_merged_.end(),
                   [](const BookEvent& a, const BookEvent& b) { return a.item < b.item; });
  std::size_t ev = 0;
  for (std::size_t i = 0; i < count && !experiment_done_; ++i) {
    const auto to = static_cast<net::NodeId>(items[i].a);
    PeerNode& p = peers_[to];
    switch (batch_outcomes_[i]) {
      case MarkOutcome::kDuplicate:
        ++p.duplicates_received;
        ++stats_.duplicates;
        break;
      case MarkOutcome::kFresh:
        overhead_.charge_data_segment();
        ++stats_.segments_delivered;
        break;
      default:
        break;
    }
    for (; ev < book_merged_.size() && book_merged_[ev].item == i; ++ev) {
      const BookEvent& e = book_merged_[ev];
      SwitchMetrics& m = timeline_.metrics(e.sw);
      switch (e.kind) {
        case BookEvent::Kind::kFinish:
          m.finish_times.push_back(e.time - m.switch_time);
          ++m.finished_s1;
          check_experiment_complete();
          break;
        case BookEvent::Kind::kPrepared:
          m.prepared_times.push_back(e.time - m.switch_time);
          ++m.prepared_s2;
          check_experiment_complete();
          break;
        case BookEvent::Kind::kS2Start:
          m.s2_start_times.push_back(e.time - m.switch_time);
          break;
      }
    }
  }
  // Post-stop revert: phase work past the stop item raised finished /
  // prepared flags the inline order never reaches, and censor_unfinished
  // reads those flags after the run.  Every logged event marks a
  // false->true transition, so reverting is clearing.  The other post-stop
  // phase effects (buffer marks, playback, gates) are unobservable —
  // nothing reads them after the stop.
  for (; ev < book_merged_.size(); ++ev) {
    const BookEvent& e = book_merged_[ev];
    if (e.kind == BookEvent::Kind::kFinish) peers_[e.peer].sw_finished = false;
    if (e.kind == BookEvent::Kind::kPrepared) peers_[e.peer].sw_prepared = false;
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
    if (!transfers_.push(p, nb, id, now)) break;  // own uplink saturated
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
          if (book_phase_) {
            const std::size_t s = p.id % data_shards_;
            book_events_[s].push_back({book_current_item_[s], BookEvent::Kind::kS2Start,
                                       start_switch, p.id, play_time});
          } else {
            SwitchMetrics& m = timeline_.metrics(start_switch);
            m.s2_start_times.push_back(play_time - m.switch_time);
          }
        }
      });
}

void Engine::record_finish(PeerNode& p, int switch_index, double play_time) {
  if (p.sw_finished || p.active_switch != switch_index) return;
  p.sw_finished = true;
  if (!p.tracked) return;
  if (book_phase_) {
    // Split book phase: the flag transition is per-peer (this lane owns
    // the peer); the metric push and the stop check are globally ordered —
    // log them for the tail.
    const std::size_t s = p.id % data_shards_;
    book_events_[s].push_back(
        {book_current_item_[s], BookEvent::Kind::kFinish, switch_index, p.id, play_time});
    return;
  }
  SwitchMetrics& m = timeline_.metrics(switch_index);
  m.finish_times.push_back(play_time - m.switch_time);
  ++m.finished_s1;
  check_experiment_complete();
}

void Engine::record_prepared(PeerNode& p, int switch_index, double now) {
  if (p.sw_prepared || p.active_switch != switch_index) return;
  p.sw_prepared = true;
  if (!p.tracked) return;
  if (book_phase_) {
    const std::size_t s = p.id % data_shards_;
    book_events_[s].push_back(
        {book_current_item_[s], BookEvent::Kind::kPrepared, switch_index, p.id, now});
    return;
  }
  SwitchMetrics& m = timeline_.metrics(switch_index);
  m.prepared_times.push_back(now - m.switch_time);
  ++m.prepared_s2;
  check_experiment_complete();
}

void Engine::check_experiment_complete() {
  if (experiment_done_) return;
  if (timeline_.experiment_complete()) {
    experiment_done_ = true;
    sim_.stop();
  }
}

}  // namespace gs::stream
