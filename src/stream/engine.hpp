// The streaming engine: gossip pull streaming with serial source switching.
//
// A thin orchestrator after the subsystem decomposition: the engine owns
// the simulator and the overlay (graph + membership + latency) and wires
// three subsystems to them —
//
//   PeerNode       per-peer buffer, playback, budget and gossip state
//   TransferPlane  the supplier uplinks' capacity ledger (capacity models
//                  behind the CapacityModel interface); prices each
//                  transfer with its arrival time
//   SwitchTimeline epoch/session bookkeeping and per-switch metrics
//
// The scheduling *policy* is injected as a SchedulerStrategy (fast switch /
// normal switch / ...); the engine supplies mechanism only: periodic ticks,
// buffer-map snapshots, budget enforcement, playback and churn.
//
// Time convention (paper §5.1): the first switch happens at t = 0; the old
// source streams during the warm-up t in [-warmup, 0).
#pragma once

#include <memory>
#include <vector>

#include "gossip/membership.hpp"
#include "gossip/overhead.hpp"
#include "net/graph.hpp"
#include "net/latency.hpp"
#include "sim/periodic.hpp"
#include "sim/simulator.hpp"
#include "stream/candidate_build.hpp"
#include "stream/cdn_assist.hpp"
#include "stream/commit_colouring.hpp"
#include "stream/engine_stats.hpp"
#include "stream/bandwidth.hpp"
#include "stream/metrics.hpp"
#include "stream/peer_node.hpp"
#include "stream/scheduler.hpp"
#include "stream/segment.hpp"
#include "stream/switch_timeline.hpp"
#include "stream/transfer_plane.hpp"
#include "util/rng.hpp"

namespace gs::stream {

/// Engine knobs; defaults reproduce the paper's §5.1 setup.
struct EngineConfig {
  double tau = 1.0;                  ///< data scheduling period (s)
  double playback_rate = 10.0;       ///< p (segments/s; 300 Kbps / 30 Kb)
  std::size_t buffer_capacity = 600; ///< B (also the availability map's slots)
  std::size_t q_consecutive = 10;    ///< Q
  std::size_t q_startup = 50;        ///< Qs

  BandwidthSampler inbound = BandwidthSampler::paper_inbound();
  BandwidthSampler outbound = BandwidthSampler::paper_outbound();
  /// Source: zero inbound, "much larger" outbound (seg/s).
  double source_outbound = 120.0;

  double warmup = 2.0;             ///< seconds of live dynamics before t=0
  double horizon = 150.0;          ///< give-up time after the last switch

  /// Start the run in the stable streaming phase instead of cold.
  ///
  /// The paper "lets the system run for a sufficient period of time to
  /// enter its stable phase" before switching, and describes that phase as
  /// one where "most nodes' data delivery rate cannot catch the media play
  /// rate": playback rides the reception frontier, and every node carries
  /// an undelivered backlog Q0 = head - frontier that grows with its
  /// overlay depth (Fig. 6's S1 finishing times of ~5-15 s at full-rate
  /// drain imply Q0 of roughly 75-200 segments, growing with scale).
  ///
  /// warm_start constructs exactly that state: the old source holds
  /// `history_seconds` of content; each peer has a solid prefix up to its
  /// playback cursor, which lags the head by base_lag_segments plus
  /// hop_lag_seconds of stream per overlay hop from the source; the lag
  /// window beyond the cursor is mostly missing with a `sparse_fill`
  /// random coverage (the light diversity a real mesh carries).  The
  /// warmup then runs live dynamics to settle queues before t = 0.
  bool warm_start = true;
  double history_seconds = 70.0;   ///< content generated before -warmup
  /// Stable-phase backlog calibration: Q0(N) ~ scale * N^exponent segments,
  /// fitted to the S1 finishing times the paper reports in Fig. 6
  /// (~5 s at N=100 up to ~14 s at N=8000 under full-rate drain).  The
  /// paper never states its stable-phase backlog directly; this is the
  /// documented calibration knob of the reproduction.  Fig. 5's linear
  /// drain from t=0 indicates the backlog is roughly uniform across nodes
  /// (not depth-correlated), which is what warm_start seeds.
  double stable_backlog_scale = 17.0;
  double stable_backlog_exponent = 0.25;
  double base_lag_segments = 10.0;  ///< additive minimum initial head lag
  double hop_lag_seconds = 0.0;     ///< optional extra per-hop lag (ablation)
  double sparse_fill = 0.30;        ///< coverage of the missing lag window
  double pending_timeout = 2.5;    ///< s before an unanswered request retries
  double accept_horizon = 2.0;     ///< max supplier backlog (s) to accept
  SupplierCapacityModel supplier_capacity = SupplierCapacityModel::kSharedFifo;
  /// Periods of inbound budget carry-over.  1.0 = the paper's model: a node
  /// can receive at most I*tau segments per scheduling period (Fig. 2's
  /// premise "can receive 7 ... but 10 available" requires the budget to
  /// bind; banking unused budget would dissolve the S1/S2 contention the
  /// switch algorithms arbitrate).
  double budget_carry = 1.0;

  double churn_leave_fraction = 0.0;  ///< per period (dynamic runs: 0.05)
  double churn_join_fraction = 0.0;   ///< per period (dynamic runs: 0.05)

  /// Randomize tick phase within the period (desynchronized clients);
  /// ticks are lockstep at period boundaries when false.  Phases are drawn
  /// per *shard* (see tick_shard_size), not per peer.
  bool stagger_ticks = true;
  /// Peers per tick shard: peers [s*size, (s+1)*size) share one stagger
  /// phase and one sim::BatchTicker sweep event per period; must be >= 1.
  /// Under parallel_shards this is also the parallel grain: one sweep's
  /// members are planned concurrently, so larger shards amortise the
  /// fork/join cost (scale runs want 128-512).
  std::size_t tick_shard_size = 16;
  /// Sharded parallel simulation core.  0 = the classic single-threaded
  /// path.  P >= 1 runs on min(P, hardware threads) lanes of
  /// util::global_pool().  Every tick sweep runs in waves of
  /// max(32, 16 * min(P, 64)) members — keyed on P, not on the lane count,
  /// so the commit diagnostics below depend on the config alone; the wave
  /// only bounds the plan slots held at once — each in two phases:
  ///   pre     sequential, member order — every cross-peer-visible write
  ///           (availability adverts, boundary learning, playback/metrics);
  ///   wave    the commit wave: the only state a tick reads that another
  ///           member's tick writes is a supplier's uplink backlog, so the
  ///           wave colours its supplier-contention graph (contention set =
  ///           the neighbour list of a member that will plan) with a
  ///           layered greedy colouring — a member's colour exceeds every
  ///           earlier conflicting member's — and then plans and commits
  ///           class by class on the lanes (candidate build + strategy
  ///           scheduling, the dominant tick cost, then request issue and
  ///           capacity commits, staging deliveries per member).  Every
  ///           plan reads exactly the backlog the sequential engine shows
  ///           it, and a final member-order drain posts the staged
  ///           deliveries and deferred counters, so event sequence numbers
  ///           match the sequential engine exactly.
  /// Consecutive delivery events pop as one batch (the engine registers
  /// its delivery sink as the simulator's batch sink, so runs of at most
  /// 4096 deliveries reach on_delivery_batch) and drain as a parallel
  /// per-target-shard book phase (buffer marks, boundary learning,
  /// playback, per-peer counters and flags — each item writes only the
  /// peer it delivers to) and a short sequential tail that replays the
  /// metric pushes and wire counters in global pop order.  Tick sweeps
  /// stay one event per tick shard, tied shards sweeping in creation
  /// order.  push_fresh_segments turns the delivery batching off: push
  /// reads neighbour buffers and schedules transfers per delivery, which
  /// requires the inline pop order.
  /// Pure mechanism: fixed-seed metrics are bit-identical for every shard
  /// count, including 0 (enforced by stream_determinism_test); only wall
  /// clock and the shard, drain and commit diagnostics change — plus, in
  /// the one batch where the experiment completes, events_popped: the run's
  /// final batch is popped whole, so items behind the completing delivery
  /// count as popped (their ordered bookkeeping is skipped exactly like the
  /// inline stop skips them).
  std::size_t parallel_shards = 0;
  /// kTokenBucket burst depth in segments (>= 1; 1 degenerates to
  /// kSharedFifo's serialised spacing).
  double token_bucket_burst = 4.0;
  /// Flash-crowd scenario: this many extra peers join at a uniform pace
  /// over [flash_crowd_start, flash_crowd_start + flash_crowd_duration)
  /// (seconds, experiment time — the first switch is at 0, so the defaults
  /// land the crowd right on a source switch).  0 disables.  Joins run
  /// through the regular churn join path (membership, ping sampling,
  /// neighbour-derived start point), so the scenario composes with every
  /// other flag and stays deterministic for a fixed seed.
  std::size_t flash_crowd_joins = 0;
  double flash_crowd_start = 0.5;
  double flash_crowd_duration = 2.0;
  /// Charge availability gossip as BufferMapDelta exchanges (changed-bit
  /// runs + base shift) instead of full maps (B + 20 bits: one slot per
  /// buffered segment plus the base id; 620 at the paper's B = 600), with
  /// a full-map refresh every map_refresh_period adverts and whenever the
  /// delta would not beat the full map.  The delta format addresses a
  /// window of at most 1024 slots, so for B > 1024 every advert is a full
  /// map.  Accounting-model change: the overhead-ratio metric drops by
  /// design; everything else stays bit-identical.
  bool delta_maps = false;
  /// Adverts between full-map refreshes under delta_maps (>= 1; 1 sends
  /// full maps every period, i.e. the paper's accounting).
  std::size_t map_refresh_period = 10;
  /// GridMedia-style extension: relay freshly received segments to random
  /// neighbours without a request (costs data bits; adds redundancy).
  bool push_fresh_segments = false;
  std::size_t push_fanout = 2;
  /// CDN-assisted fast switch (FCC-style patch source; see
  /// stream/cdn_assist.hpp).  On each source switch a capacity-limited CDN
  /// node serves the head of the new session to peers whose gossip
  /// suppliers have not caught up: after the gossip scheduler spends its
  /// tick budget, an assisted peer requests its missing prefix ids from the
  /// CDN with whatever inbound budget is left (so the patch stream never
  /// displaces scheduled gossip pulls, it fills the idle remainder of the
  /// peer's inbound link).  A per-peer controller pauses the burst when the
  /// buffered lead reaches cdn_assist_pause_s, resumes it under
  /// cdn_assist_resume_s, and hands off to the swarm once every missing
  /// patch-window id has an alive gossip supplier.  Unlike the mechanism
  /// flags above this changes the dynamics *by design* — switch latency
  /// drops at a CDN byte-cost (see bench_ablation_cdn_assist) — but with
  /// the flag off the plane is never constructed and all fixed-seed
  /// metrics stay bit-identical across every existing flag combination,
  /// and with it on they are still bit-identical at every shard count
  /// (both enforced by stream_determinism_test).
  bool cdn_assist = false;
  double cdn_assist_rate = 120.0;       ///< CDN uplink capacity (segments/s)
  double cdn_assist_latency_ms = 40.0;  ///< fixed server latency (no jitter)
  double cdn_assist_horizon = 2.0;      ///< max CDN backlog (s) to accept
  double cdn_assist_pause_s = 3.0;      ///< buffered lead that pauses a burst
  double cdn_assist_resume_s = 1.0;     ///< lead that resumes a paused burst
  /// Patch window cap in segments (0 = the whole Qs startup prefix).
  std::size_t cdn_assist_span = 0;

  /// Ping sampling for joiners (matches net::TraceSynthesisOptions).
  double join_ping_min_ms = 10.0;
  double join_ping_shape = 1.6;
  double join_ping_cap_ms = 800.0;

  /// Target neighbour count M maintained by the membership protocol.
  std::size_t membership_degree = 5;

  /// Record a per-period global health series (lag, throughput) for
  /// diagnostics; negligible cost, off by default.
  bool debug_series = false;

  std::uint64_t seed = 1;
};

class Engine {
 public:
  /// `graph` is the initial overlay (already degree-repaired); `latency`
  /// must cover its nodes.  `strategy` is shared by all peers (stateless
  /// per call).
  Engine(net::Graph graph, net::LatencyModel latency, EngineConfig config,
         std::shared_ptr<SchedulerStrategy> strategy);

  /// Declares the serial source timeline: sources[k] streams session k;
  /// session 0 starts at -warmup; session k (k>=1) starts at
  /// switch_times[k-1] (strictly increasing, first one = 0).
  void set_sources(std::vector<net::NodeId> sources, std::vector<double> switch_times);

  /// Runs the whole experiment and returns per-switch metrics.
  [[nodiscard]] std::vector<SwitchMetrics> run();

  [[nodiscard]] const gossip::OverheadAccountant& overhead() const noexcept { return overhead_; }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

  /// One per-period sample of global pipeline health (debug_series only).
  struct DebugPoint {
    double time = 0.0;
    SegmentId head = kNoSegment;    ///< newest generated id
    double mean_cursor_gap = 0.0;   ///< head - playback cursor, averaged
    double mean_frontier_gap = 0.0; ///< head - first missing id, averaged
    double max_frontier_gap = 0.0;
    std::uint64_t delivered_this_period = 0;
    std::uint64_t requests_this_period = 0;
    std::uint64_t candidates_this_period = 0;
    std::uint64_t scheduled_this_period = 0;
    std::uint64_t old_req_this_period = 0;
    std::uint64_t new_req_this_period = 0;
  };
  [[nodiscard]] const std::vector<DebugPoint>& debug_series() const noexcept {
    return debug_series_;
  }
  [[nodiscard]] const PeerNode& peer(net::NodeId v) const;
  [[nodiscard]] std::size_t peer_count() const noexcept { return peers_.size(); }
  [[nodiscard]] const net::Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] const std::vector<Session>& sessions() const noexcept {
    return timeline_.sessions();
  }
  [[nodiscard]] const SwitchTimeline& timeline() const noexcept { return timeline_; }
  [[nodiscard]] const TransferPlane& transfers() const noexcept { return transfers_; }

 private:
  // --- setup / lifecycle (engine_lifecycle.cpp) ---
  void init_peers();
  void init_peer_state(PeerNode& p, net::NodeId v);
  void warm_start_state();
  /// Tick phase of peer `v`: its shard's stagger phase (0 when lockstep).
  [[nodiscard]] double tick_offset(net::NodeId v) const;
  /// `initial` peers join their shard's batch group; joiners get singleton
  /// groups (their grid starts at the join time, not the run start).
  void start_peer_tick(PeerNode& p, bool initial);
  void start_debug_series();
  net::NodeId handle_join();
  void handle_leave(net::NodeId v);
  void churn_step(double now);

  // --- orchestration (engine.cpp) ---
  void start_session(SessionIndex k);
  /// Schedules switch `switch_index`'s instant on switch_sink_, which then
  /// calls run_switch (closes the old session, starts the next).
  void schedule_switch(int switch_index);
  void run_switch(int switch_index);
  void generate_segment(SessionIndex k, double now);

  /// The switch instants' event sink: payload word `a` is the switch index.
  struct SwitchSink final : sim::EventSink {
    explicit SwitchSink(Engine& e) : engine(e) {}
    void on_event(std::uint64_t a, std::uint64_t /*b*/) override {
      engine.run_switch(static_cast<int>(a));
    }
    Engine& engine;
  };
  /// The swarm deliveries' event sink (pulls and pushes): payload word `a`
  /// is the requester node id, `b` the segment id.  The simulator's batch
  /// sink while the batched drain is active, so runs of deliveries reach
  /// on_delivery_batch; otherwise each pops singly into on_delivery.
  struct DeliverySink final : sim::BatchSink {
    explicit DeliverySink(Engine& e) : engine(e) {}
    void on_event(std::uint64_t a, std::uint64_t b) override {
      engine.on_delivery(static_cast<net::NodeId>(a), static_cast<SegmentId>(b));
    }
    void on_batch(const sim::PooledBatchItem* items, std::size_t count) override {
      engine.on_delivery_batch(items, count);
    }
    Engine& engine;
  };

  /// The CDN patches' event sink: payload word `a` is the peer node id, `b`
  /// the segment id.  Never the batch sink, so a patch pops singly in the
  /// global (time, sequence) order.  Served = sent: the bytes left the CDN
  /// even if the peer departed while the patch was in flight (on_delivery
  /// drops it then).
  struct PatchSink final : sim::EventSink {
    explicit PatchSink(Engine& e) : engine(e) {}
    void on_event(std::uint64_t a, std::uint64_t b) override {
      ++engine.stats_.cdn_segments_served;
      engine.stats_.cdn_bytes_served += gossip::WireFormat::data_bits() / 8;
      engine.on_delivery(static_cast<net::NodeId>(a), static_cast<SegmentId>(b));
    }
    Engine& engine;
  };

  // --- per-tick pipeline ---
  /// A delivery tick_commit issued: the capacity commit and the jitter draw
  /// already happened; only the simulator event is deferred, posted by
  /// finish_tick in member order so event sequence numbers match the
  /// sequential engine exactly.
  struct StagedDelivery {
    SegmentId id = kNoSegment;
    double deliver_at = 0.0;
  };
  /// One tick's plan and commit: the candidate build and the strategy's
  /// request list, then the deliveries and global counters the commit
  /// deferred to finish_tick.  Under the sharded core a wave slot holds
  /// one member's plan, made and committed on a lane in the member's
  /// colour class; the sequential tick reuses one slot for every peer.
  struct TickPlan {
    bool live = false;     ///< tick_pre ran (alive non-source member)
    bool planned = false;  ///< the budget allowed a candidate build
    /// The old/new split the strategy planned under (finish_tick charges
    /// the split stats from here, so they always describe the ctx that was
    /// actually scheduled).
    bool split_active = false;
    SegmentId s1_end = kNoSegment;
    std::vector<CandidateSegment> candidates;
    /// The candidates' supplier lists: each candidate's span is a slice of
    /// this store (see collect_candidates).  Owned by the plan, so a lane
    /// writes only its own member's store.
    std::vector<SupplierView> suppliers;
    /// The candidate build's word and count buffers (capacity kept).
    CandidateScratch scratch;
    std::vector<ScheduledRequest> requests;
    std::uint64_t probes = 0;  ///< deferred EngineStats::availability_probes
    /// Deferred EngineStats::requests_issued / requests_rejected (and the
    /// per-request overhead charge rides on `issued`).
    std::uint32_t issued = 0;
    std::uint32_t rejected = 0;
    std::vector<StagedDelivery> staged;
  };

  /// The sequential tick: pre, plan, commit and finish back to back.
  void tick(PeerNode& p, double now);
  /// Phase 1: budget replenish, availability exchange, pending prune,
  /// playback — every tick effect another peer (or the timeline) can
  /// observe.  False when the peer does not tick (source / dead).
  bool tick_pre(PeerNode& p, double now);
  /// Phase 2: candidate build (collect_candidates, word-parallel from the
  /// neighbours' presence bits) + strategy scheduling into `plan`.  Reads
  /// the neighbours' buffers and uplink backlogs, writes only `plan` (its
  /// supplier store and scratch included) and p.rng.  An empty build
  /// returns before any strategy rng draw.
  void tick_plan(PeerNode& p, double now, TickPlan& plan);
  /// Phase 3: issues the plan's requests in order with the rejection
  /// fallback — capacity commits on the suppliers' uplinks, p's budget and
  /// pending set — staging the deliveries and deferring every global
  /// counter into `plan`.  Plan and commit of two peers whose neighbour
  /// lists are disjoint touch no common state, which is what lets one
  /// colour class run on concurrent lanes.
  void tick_commit(PeerNode& p, double now, TickPlan& plan);
  /// Phase 4, on the simulator thread in member order (both engines): folds
  /// the plan's deferred counters, charges the issued requests' wire bits,
  /// posts the staged deliveries in issue order, then runs the CDN tick.
  void finish_tick(PeerNode& p, double now, const TickPlan& plan);
  /// The sharded sweep driver: per wave, pre in member order, then the
  /// commit wave (see EngineConfig::parallel_shards).
  void run_parallel_sweep(const std::vector<std::uint32_t>& members, double now);
  /// Availability exchange bookkeeping + boundary discovery, read off the
  /// neighbours' known boundaries (the buffer-map headers; segment metadata
  /// announces a boundary too, in deliver_bookkeeping).
  void snapshot_and_learn(PeerNode& p);
  /// Charges one availability advert from `p` to its `receivers` alive
  /// neighbours under delta_maps accounting (delta or periodic full map).
  void advert_availability(PeerNode& p, std::size_t receivers);
  /// Issues one scheduled request: the capacity commit, p's budget and
  /// pending entry, the staged delivery and the deferred counters (see
  /// TickPlan).
  bool issue_one(PeerNode& p, SegmentId id, net::NodeId supplier, double now, TickPlan& plan);
  /// The commit wave: colours wave members [base, base + count) of the
  /// sweep by supplier contention before anything plans, runs tick_plan and
  /// tick_commit together on pool lanes one colour class at a time, then
  /// runs finish_tick in member order (see EngineConfig::parallel_shards).
  void commit_wave(const std::vector<std::uint32_t>& members, std::size_t base,
                   std::size_t count, double now);

  // --- CDN assist (config_.cdn_assist) ---
  /// Runs last in finish_tick: computes the controller's view of `p` (switch
  /// eligibility, rest play time, gossip coverage of the patch window) and
  /// requests missing prefix ids from the CDN with the tick's leftover
  /// inbound budget.
  void cdn_assist_tick(PeerNode& p, double now);
  /// Every missing id in [begin, end] has at least one alive neighbour
  /// holding it (the patch window may lie beyond the request window).
  [[nodiscard]] bool cdn_window_covered(const PeerNode& p, SegmentId begin,
                                        SegmentId end) const;

  // --- data path ---
  /// Posts the delivery event of a booked swarm transfer on delivery_sink_.
  void post_delivery(net::NodeId to, SegmentId id, double deliver_at, double now);
  /// Delivery of a swarm transfer or a CDN patch.
  void on_delivery(net::NodeId to, SegmentId id);
  void deliver_segment(PeerNode& p, SegmentId id, double now, bool count_wire);
  /// Everything after the buffer write of a fresh delivery: wire
  /// accounting, boundary learning, switch progress, playback.  Split out
  /// so the batched drain's book phase can run it after its own buffer
  /// mark.
  void deliver_bookkeeping(PeerNode& p, SegmentId id, double now, bool count_wire);
  void push_to_neighbors(PeerNode& p, SegmentId id, double now);

  // --- batched delivery drain (parallel_shards > 0, no push) ---
  //
  // A batched run of delivery events (DeliverySink::on_batch) drains in two
  // passes that reproduce the inline pop sequence exactly:
  //   book    parallel per target-peer shard, each shard's items in pop
  //           order — pending erase, buffer mark and, for a fresh delivery,
  //           every per-peer effect (boundary learning, switch progress,
  //           playback) with book_phase_ set.  Each item writes only the
  //           peer it delivers to; the globally ordered side effects —
  //           metric pushes, wire counters, experiment completion — go to
  //           per-shard BookEvent logs keyed by the batch item being
  //           drained;
  //   tail    sequential, pop order — one read cursor per shard log
  //           walks the items: item i's events are the next unread
  //           entries of its target shard's log (each log is in item
  //           order, and in call order within an item), replayed with the
  //           duplicate and wire counters, stopping at the completing item
  //           exactly like the inline pop loop.  The stop closes the last
  //           switch, so no later item can hold a tracked peer's finish or
  //           prepare — only s2 starts are left behind (GS_DCHECKed), and
  //           the end-of-run censoring sees the inline flags.
  void on_delivery_batch(const sim::PooledBatchItem* items, std::size_t count);
  /// A switch event — an S1 finish, an S2 prepare or an S2 start — the
  /// globally ordered side effect that the book phase defers.
  struct BookEvent {
    enum class Kind : std::uint8_t { kFinish, kPrepared, kS2Start };
    std::uint32_t item = 0;  ///< batch item (pop order) that produced it
    Kind kind = Kind::kFinish;
    int sw = 0;              ///< switch index
    double time = 0.0;       ///< playback/wall time to push (pre-offset)
  };
  /// Per-delivery outcome of the book phase's buffer mark.
  enum class MarkOutcome : std::uint8_t {
    kDead,  ///< target left while the segment was in flight
    kDuplicate,
    kFresh,
  };

  // --- switch bookkeeping ---
  void learn_boundaries(PeerNode& p, int up_to, double now);
  void on_switch_progress(PeerNode& p, SegmentId id, double now);
  void maybe_release_gate(PeerNode& p, double now);
  void maybe_start_playback(PeerNode& p, double now);
  void advance_playback(PeerNode& p, double now);
  void record_finish(PeerNode& p, int switch_index, double play_time);
  void record_prepared(PeerNode& p, int switch_index, double now);
  /// The one landing path of a switch event: logged for the tail during
  /// the book phase, applied at once otherwise.
  void land_switch_event(const PeerNode& p, BookEvent event);
  /// Pushes the event's metric sample; a finish or a prepare checks completion.
  void apply_switch_event(const BookEvent& event);
  void check_experiment_complete();

  [[nodiscard]] std::size_t required_prefix(int switch_index) const {
    return timeline_.required_prefix(switch_index, config_.q_startup);
  }

  net::Graph graph_;
  net::LatencyModel latency_;
  EngineConfig config_;
  /// The injected scheduling strategy every peer plans with.
  std::shared_ptr<SchedulerStrategy> strategy_;

  sim::Simulator sim_;
  gossip::OverheadAccountant overhead_;
  gossip::MembershipProtocol membership_;
  TransferPlane transfers_;
  SwitchTimeline timeline_;
  /// CDN patch-source plane (config_.cdn_assist; null otherwise, so the
  /// disabled engine is byte-for-byte the pre-CDN engine).
  std::unique_ptr<CdnAssistPlane> cdn_;

  std::vector<PeerNode> peers_;

  /// Sequential tick scratch (parallel_shards == 0).
  TickPlan plan_seq_;
  /// Advert scratch: build_map_into target reused across all peers' adverts
  /// (swapped with p.advertised_map under delta accounting).
  gossip::BufferMap advert_scratch_;
  /// Per-member plan slots for the sharded sweep pipeline
  /// (parallel_shards > 0); sized to the largest wave seen and reused.
  std::vector<TickPlan> batch_plans_;

  /// Batched delivery drain state (sized only when the drain is active).
  /// Peer ownership shard = id % data_shards_ (0 = drain inactive), at
  /// most kMaxDataShards shards.
  static constexpr std::size_t kMaxDataShards = 64;
  std::size_t data_shards_ = 0;
  /// Per target-peer shard: indices into the current batch, pop order.
  std::vector<std::vector<std::uint32_t>> shard_entries_;
  std::vector<MarkOutcome> batch_outcomes_;

  // --- plan lanes, commit wave and book phase state (parallel mode) ---
  /// Executors of every parallel pass: min(parallel_shards, hardware
  /// threads), 0 in sequential mode.  Lanes beyond the hardware threads
  /// only thrash the scheduler, and results never depend on the count.
  std::size_t lanes_ = 0;
  /// Layered supplier-contention colouring scratch, reused across waves.
  CommitColouring colouring_;
  /// Class-bucketed wave slots: class_slots_[colour] lists the wave slots
  /// of that colour in member order (buckets keep capacity across waves).
  std::vector<std::vector<std::uint32_t>> class_slots_;
  /// Per-target-shard BookEvent logs of the book phase, each in item order.
  std::vector<std::vector<BookEvent>> book_events_;
  /// book_current_item_[shard] = pop-order index of the item that shard's
  /// lane is draining (written by the owning lane before each item's phase
  /// work; read by the logging hooks on the same lane).
  std::vector<std::uint32_t> book_current_item_;
  /// Reroutes land_switch_event into the BookEvent logs (set only for the
  /// duration of the parallel book phase).
  bool book_phase_ = false;

  std::vector<DebugPoint> debug_series_;
  std::unique_ptr<sim::PeriodicTask> debug_task_;
  /// stats_ at the previous debug sample (the per-period deltas' base).
  EngineStats debug_last_;

  std::unique_ptr<sim::PeriodicTask> generation_task_;
  SwitchSink switch_sink_{*this};
  DeliverySink delivery_sink_{*this};
  PatchSink patch_sink_{*this};
  std::unique_ptr<sim::PeriodicTask> churn_task_;
  std::unique_ptr<sim::PeriodicTask> sampler_task_;
  /// Flash-crowd admission pump (config_.flash_crowd_joins > 0).
  std::unique_ptr<sim::PeriodicTask> flash_task_;
  std::size_t flash_joined_ = 0;

  /// Tick dispatch: one sweep event per tick shard per period.
  sim::BatchTicker ticker_;
  /// shard index -> ticker group (initial peers only; kNoTickGroup until
  /// the shard's first non-source peer arms it).
  std::vector<std::size_t> shard_group_;

  util::Rng churn_rng_;
  util::Rng setup_rng_;

  EngineStats stats_;
  bool experiment_done_ = false;
};

}  // namespace gs::stream
