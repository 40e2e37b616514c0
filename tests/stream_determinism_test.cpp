// Determinism regression for the decomposed engine: two independently
// constructed engines with the same seed must reproduce *identical*
// SwitchMetrics — every scalar, every per-node time, every track sample —
// under both algorithms, churn, the per-link capacity model and
// multi-switch timelines.  This is the oracle that the PeerNode /
// TransferPlane / SwitchTimeline decomposition (and every later scaling
// refactor) preserves the simulation bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/fast_switch.hpp"
#include "core/normal_switch.hpp"
#include "net/topology.hpp"
#include "stream/commit_colouring.hpp"
#include "stream/engine.hpp"
#include "stream/engine_stats.hpp"

namespace gs::stream {
namespace {

struct RunOutput {
  std::vector<SwitchMetrics> metrics;
  EngineStats stats;
  gossip::OverheadAccountant overhead;
};

struct RunSpec {
  std::uint64_t seed = 7;
  /// B.  Small values make nearly every delivery evict, so the buffer's
  /// oldest and lowest held ids move on almost every insert.
  std::size_t buffer_capacity = 600;
  bool fast = true;
  bool churn = false;
  bool per_link = false;
  bool token_bucket = false;
  bool stagger = true;
  bool delta_maps = false;
  /// Flash-crowd joiners admitted shortly after the first switch (0 = off).
  std::size_t flash_joins = 0;
  /// CDN-assisted fast switch (changes dynamics by design when on; off must
  /// stay bit-identical to a build without the plane).
  bool cdn = false;
  /// Caught-up steady swarm (no synthetic backlog or lag): the scenario
  /// where most plans come back empty.
  bool steady = false;
  std::size_t parallel = 0;
  std::size_t tick_shard = 16;
  std::vector<net::NodeId> sources = {0, 1};
  std::vector<double> switch_times = {0.0};
};

RunOutput run_setup(const RunSpec& setup) {
  util::Rng rng(setup.seed);
  net::Graph graph = net::preferential_attachment(50, 2, rng);
  net::repair_min_degree(graph, 5, rng);
  std::vector<double> pings(50);
  for (auto& ping : pings) ping = rng.uniform(20.0, 200.0);

  EngineConfig config;
  config.seed = setup.seed;
  config.horizon = 120.0;
  config.buffer_capacity = setup.buffer_capacity;
  if (setup.churn) {
    config.churn_leave_fraction = 0.05;
    config.churn_join_fraction = 0.05;
  }
  if (setup.per_link) config.supplier_capacity = SupplierCapacityModel::kPerLink;
  if (setup.token_bucket) config.supplier_capacity = SupplierCapacityModel::kTokenBucket;
  config.stagger_ticks = setup.stagger;
  config.delta_maps = setup.delta_maps;
  config.flash_crowd_joins = setup.flash_joins;
  config.cdn_assist = setup.cdn;
  if (setup.steady) {
    config.sparse_fill = 1.0;
    config.stable_backlog_scale = 0.0;
    config.base_lag_segments = 0.0;
    config.hop_lag_seconds = 0.0;
  }
  config.parallel_shards = setup.parallel;
  config.tick_shard_size = setup.tick_shard;

  std::shared_ptr<SchedulerStrategy> strategy;
  if (setup.fast) {
    strategy = std::make_shared<core::FastSwitchScheduler>();
  } else {
    strategy = std::make_shared<core::NormalSwitchScheduler>();
  }
  auto engine = std::make_unique<Engine>(std::move(graph), net::LatencyModel(std::move(pings)),
                                         config, std::move(strategy));
  engine->set_sources(setup.sources, setup.switch_times);
  RunOutput out;
  out.metrics = engine->run();
  out.stats = engine->stats();
  out.overhead = engine->overhead();
  return out;
}

void expect_identical(const SwitchMetrics& a, const SwitchMetrics& b) {
  EXPECT_EQ(a.switch_index, b.switch_index);
  EXPECT_EQ(a.switch_time, b.switch_time);
  EXPECT_EQ(a.tracked, b.tracked);
  EXPECT_EQ(a.finished_s1, b.finished_s1);
  EXPECT_EQ(a.prepared_s2, b.prepared_s2);
  EXPECT_EQ(a.censored_finish, b.censored_finish);
  EXPECT_EQ(a.censored_prepare, b.censored_prepare);
  EXPECT_EQ(a.finish_times, b.finish_times) << "per-node finish times diverged";
  EXPECT_EQ(a.prepared_times, b.prepared_times) << "per-node prepared times diverged";
  EXPECT_EQ(a.s2_start_times, b.s2_start_times);
  EXPECT_EQ(a.overhead_ratio, b.overhead_ratio);
  EXPECT_EQ(a.control_ratio, b.control_ratio);
  EXPECT_EQ(a.data_segments, b.data_segments);
  ASSERT_EQ(a.track.size(), b.track.size());
  for (std::size_t i = 0; i < a.track.size(); ++i) {
    EXPECT_EQ(a.track[i].time, b.track[i].time);
    EXPECT_EQ(a.track[i].undelivered_ratio_s1, b.track[i].undelivered_ratio_s1);
    EXPECT_EQ(a.track[i].delivered_ratio_s2, b.track[i].delivered_ratio_s2);
    EXPECT_EQ(a.track[i].live_tracked, b.track[i].live_tracked);
  }
}

void expect_identical(const RunOutput& a, const RunOutput& b) {
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t k = 0; k < a.metrics.size(); ++k) {
    expect_identical(a.metrics[k], b.metrics[k]);
  }
  for_each_stat([&](const StatRow& row, auto field) {
    if (row.cls == StatClass::kOutput) {
      EXPECT_EQ(a.stats.*field, b.stats.*field) << row.name;
    }
  });
}

TEST(Determinism, FastSwitchReproducesIdenticalMetrics) {
  RunSpec setup;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(Determinism, NormalSwitchReproducesIdenticalMetrics) {
  RunSpec setup;
  setup.fast = false;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(Determinism, ChurnRunReproducesIdenticalMetrics) {
  RunSpec setup;
  setup.seed = 19;
  setup.churn = true;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(Determinism, PerLinkCapacityReproducesIdenticalMetrics) {
  RunSpec setup;
  setup.seed = 27;
  setup.per_link = true;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(Determinism, MultiSwitchReproducesIdenticalMetrics) {
  RunSpec setup;
  setup.seed = 23;
  setup.sources = {0, 1, 2};
  setup.switch_times = {0.0, 60.0};
  expect_identical(run_setup(setup), run_setup(setup));
}

// ---------------------------------------------------------------------------
// Batched tick dispatch (sim::BatchTicker) is the only dispatcher; its former
// per-peer vs batched cases are Golden rows below.

TEST(BatchDispatch, BatchedRunsReproduceThemselves) {
  RunSpec setup;
  setup.seed = 41;
  setup.churn = true;
  expect_identical(run_setup(setup), run_setup(setup));
}

// ---------------------------------------------------------------------------
// Delta accounting changes the *wire model*, not the dynamics: every metric
// except the overhead ratios must match the full-map run, and the ratios
// must drop (that is the point of sending deltas).

TEST(DeltaMaps, OnlyLowerTheOverheadRatio) {
  RunSpec setup;
  setup.seed = 59;
  RunSpec delta = setup;
  delta.delta_maps = true;
  const RunOutput full = run_setup(setup);
  const RunOutput with_delta = run_setup(delta);
  ASSERT_EQ(full.metrics.size(), with_delta.metrics.size());
  for (std::size_t k = 0; k < full.metrics.size(); ++k) {
    EXPECT_EQ(full.metrics[k].finish_times, with_delta.metrics[k].finish_times);
    EXPECT_EQ(full.metrics[k].prepared_times, with_delta.metrics[k].prepared_times);
    EXPECT_EQ(full.metrics[k].data_segments, with_delta.metrics[k].data_segments);
    EXPECT_LT(with_delta.metrics[k].overhead_ratio, full.metrics[k].overhead_ratio);
  }
  EXPECT_EQ(full.stats.segments_delivered, with_delta.stats.segments_delivered);
  EXPECT_EQ(full.stats.requests_issued, with_delta.stats.requests_issued);
  EXPECT_GT(with_delta.stats.delta_adverts, 0u);
  EXPECT_GT(with_delta.stats.full_map_adverts, 0u);
}

TEST(DeltaMaps, ChurnRunsReproduceThemselves) {
  RunSpec setup;
  setup.seed = 61;
  setup.delta_maps = true;
  setup.churn = true;
  expect_identical(run_setup(setup), run_setup(setup));
}

// ---------------------------------------------------------------------------
// The sharded parallel core must be *observably invisible*: the same seed
// at any shard count — ticks planned and committed on parallel lanes, one
// colour class at a time — has to reproduce every metric bit for bit
// against the sequential engine, across algorithms, churn, capacity models
// and tick-shard sizes.  Only wall clock and the shard diagnostics
// (parallel_sweeps / events_popped) may change.

RunOutput run_sharded(RunSpec setup, std::size_t shards) {
  setup.parallel = shards;
  return run_setup(setup);
}

TEST(ParallelShards, EveryShardCountMatchesSequential) {
  RunSpec setup;
  const RunOutput sequential = run_setup(setup);
  for (const std::size_t shards : {1u, 4u, 7u}) {
    expect_identical(sequential, run_sharded(setup, shards));
  }
}

TEST(ParallelShards, NormalSwitchMatchesSequential) {
  RunSpec setup;
  setup.fast = false;
  expect_identical(run_setup(setup), run_sharded(setup, 4));
}

TEST(ParallelShards, ChurnMatchesSequential) {
  // Churn exercises joiner singleton sweeps, member removal mid-run and
  // colouring-scratch growth as the peer vector extends.
  RunSpec setup;
  setup.seed = 19;
  setup.churn = true;
  expect_identical(run_setup(setup), run_sharded(setup, 4));
}

TEST(ParallelShards, PerLinkCapacityMatchesSequential) {
  // Per-link capacity is requester-keyed: no two members contend, so every
  // wave is one colour class planned and committed at once.
  RunSpec setup;
  setup.seed = 27;
  setup.per_link = true;
  expect_identical(run_setup(setup), run_sharded(setup, 4));
}

TEST(ParallelShards, TokenBucketCapacityMatchesSequential) {
  // Token-bucket capacity is supplier-keyed (shared), driving the colour
  // classes under a different backlog shape than the FIFO.
  RunSpec setup;
  setup.seed = 29;
  setup.token_bucket = true;
  expect_identical(run_setup(setup), run_sharded(setup, 4));
}

TEST(ParallelShards, MultiSwitchMatchesSequential) {
  RunSpec setup;
  setup.seed = 23;
  setup.sources = {0, 1, 2};
  setup.switch_times = {0.0, 60.0};
  expect_identical(run_setup(setup), run_sharded(setup, 4));
}

TEST(ParallelShards, SevenShardsMatchSequentialAtAnotherSeed) {
  RunSpec setup;
  setup.seed = 47;
  expect_identical(run_setup(setup), run_sharded(setup, 7));
}

TEST(ParallelShards, ChurnMatchesSequentialAtAnotherSeed) {
  RunSpec setup;
  setup.seed = 53;
  setup.churn = true;
  expect_identical(run_setup(setup), run_sharded(setup, 4));
}

TEST(ParallelShards, LockstepChurnMatchesSequential) {
  // Lockstep phases put every sweep of a period at the same timestamp —
  // the densest same-time event mix the pop order has to keep ordered:
  // the tied groups sweep one after another in creation order, exactly
  // as the sequential engine does, at every shard count.
  RunSpec setup;
  setup.seed = 37;
  setup.stagger = false;
  setup.churn = true;
  const RunOutput sequential = run_setup(setup);
  expect_identical(sequential, run_sharded(setup, 4));
  expect_identical(sequential, run_sharded(setup, 1));
}

TEST(ParallelShards, LargeTickShardsMatchSequential) {
  // One sweep spanning many peers is the scale configuration (wide
  // parallel plans, many conflict checks per commit pass).
  RunSpec setup;
  setup.seed = 59;
  setup.tick_shard = 64;
  expect_identical(run_setup(setup), run_sharded(setup, 4));
}

TEST(ParallelShards, ShardedChurnRunsReproduceThemselves) {
  RunSpec setup;
  setup.seed = 61;
  setup.parallel = 7;
  setup.churn = true;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(ParallelShards, ShardDiagnosticsReportWork) {
  RunSpec setup;
  setup.tick_shard = 64;
  const RunOutput sequential = run_setup(setup);
  const RunOutput sharded = run_sharded(setup, 4);
  EXPECT_EQ(sequential.stats.parallel_sweeps, 0u);
  EXPECT_GT(sharded.stats.parallel_sweeps, 0u);
  // Every plan is made in its colour class, so nothing re-plans.
  EXPECT_EQ(sharded.stats.replanned_ticks, 0u);
  // At 50 nodes sweep members share suppliers, so waves split into several
  // classes and the class order is really exercised (the determinism
  // above is not vacuous).
  EXPECT_GT(sharded.stats.commit_colour_classes, sharded.stats.parallel_sweeps);
}

// ---------------------------------------------------------------------------
// The batched delivery drain (delivery runs drained through the book phase
// and tail) is part of the sharded core, so the ParallelShards cases and
// the Golden rows hold it to the sequential engine.  Only wall clock and
// the drain diagnostic (delivery_batches) may change.

TEST(ParallelDelivery, DrainDiagnosticsReportWork) {
  RunSpec setup;
  setup.seed = 31;
  setup.stagger = false;
  const RunOutput sequential = run_setup(setup);
  const RunOutput waved = run_sharded(setup, 4);
  EXPECT_EQ(sequential.stats.delivery_batches, 0u);
  EXPECT_GT(waved.stats.delivery_batches, 0u);
}

// ---------------------------------------------------------------------------
// Membership workloads and the memory telemetry.  Churn and the flash crowd
// add and remove peers mid-run, so they must reproduce themselves bit for
// bit; the flash-crowd scenario rides the regular join path, so it must be
// a pure workload knob that admits exactly the configured crowd.  The
// memory plane's former on/off cases are Golden rows below.

TEST(Workloads, ShardedChurnRunsReproduceThemselves) {
  RunSpec setup;
  setup.seed = 61;
  setup.churn = true;
  setup.parallel = 4;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(Workloads, FlashCrowdRunsReproduceThemselves) {
  RunSpec setup;
  setup.seed = 71;
  setup.flash_joins = 40;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(Workloads, FlashCrowdAdmitsTheConfiguredCrowd) {
  RunSpec setup;
  setup.seed = 73;
  setup.flash_joins = 40;
  const RunOutput out = run_setup(setup);
  EXPECT_EQ(out.stats.flash_joins, 40u);
  EXPECT_GE(out.stats.joins, 40u) << "flash joiners are a subset of joins";
}

TEST(Workloads, ReportsMemoryTelemetry) {
  RunSpec setup;
  setup.seed = 79;
  const RunOutput out = run_setup(setup);
  EXPECT_GT(out.stats.peer_state_bytes, 0u);
  EXPECT_GT(out.stats.bytes_per_peer, 0.0);
}

// ---------------------------------------------------------------------------
// CDN-assisted fast switch.  Unlike the mechanism flags above, the assist
// changes dynamics *by design*; what must hold is (a) fixed-seed runs with
// the assist on reproduce themselves bit for bit, (b) the assist composes
// with every mechanism option — identical metrics at every shard count —
// and (c) with the assist off nothing changes
// (covered implicitly by every other suite here: those runs never construct
// the plane).

RunOutput run_assisted(RunSpec setup) {
  setup.cdn = true;
  return run_setup(setup);
}

TEST(CdnAssist, AssistedRunsReproduceThemselves) {
  RunSpec setup;
  setup.seed = 83;
  setup.cdn = true;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(CdnAssist, AssistedChurnRunsReproduceThemselves) {
  RunSpec setup;
  setup.seed = 89;
  setup.cdn = true;
  setup.churn = true;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(CdnAssist, AssistedMetricsIdenticalAtEveryShardCount) {
  RunSpec setup;
  setup.seed = 97;
  setup.cdn = true;
  const RunOutput sequential = run_setup(setup);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}, std::size_t{7}}) {
    RunSpec sharded = setup;
    sharded.parallel = shards;
    expect_identical(sequential, run_setup(sharded));
  }
}

TEST(CdnAssist, AssistedFlashCrowdReproducesItself) {
  RunSpec setup;
  setup.seed = 107;
  setup.cdn = true;
  setup.flash_joins = 40;
  setup.parallel = 4;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(CdnAssist, AssistedTokenBucketReproducesItself) {
  RunSpec setup;
  setup.seed = 109;
  setup.cdn = true;
  setup.token_bucket = true;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(CdnAssist, AssistActuallyServes) {
  RunSpec setup;
  setup.seed = 113;
  const RunOutput out = run_assisted(setup);
  EXPECT_GT(out.stats.cdn_assisted_switches, 0u) << "switching peers should enroll";
  EXPECT_GT(out.stats.cdn_segments_served, 0u) << "the CDN should serve patch segments";
  EXPECT_EQ(out.stats.cdn_bytes_served,
            out.stats.cdn_segments_served * (30 * 1024 / 8));
  const RunOutput baseline = run_setup(setup);
  EXPECT_EQ(baseline.stats.cdn_segments_served, 0u);
  EXPECT_EQ(baseline.stats.cdn_assisted_switches, 0u);
}

// ---------------------------------------------------------------------------
// The commit wave colours each sweep wave by supplier contention before
// anything plans, then plans and commits the colour classes on pool lanes
// one class at a time.  Fixed-seed metrics must match the sequential engine
// bit for bit at every shard count and composed with every other flag (the
// ParallelShards cases, CdnAssist.AssistedMetricsIdenticalAtEveryShardCount
// and the Golden rows cover the compositions; these cases add seeds and the
// flash crowd).  Only wall clock and the commit diagnostics
// (commit_colour_classes / parallel_commits) may change.

TEST(ParallelCommit, OtherSeedsMatchSequential) {
  RunSpec setup;
  setup.seed = 43;
  const RunOutput sequential = run_setup(setup);
  expect_identical(sequential, run_sharded(setup, 4));
  expect_identical(sequential, run_sharded(setup, 7));
  setup.seed = 47;
  expect_identical(run_setup(setup), run_sharded(setup, 4));
}

TEST(ParallelCommit, FlashCrowdComposes) {
  RunSpec setup;
  setup.seed = 53;
  setup.flash_joins = 40;
  expect_identical(run_setup(setup), run_sharded(setup, 4));
}

TEST(ParallelCommit, CommitDiagnosticsReportWork) {
  RunSpec setup;
  setup.seed = 31;
  // 64-member sweeps: one wave at 4 shards, two waves at 1 shard.
  setup.tick_shard = 64;
  const RunOutput sequential = run_setup(setup);
  const RunOutput waved = run_sharded(setup, 4);
  EXPECT_EQ(sequential.stats.parallel_commits, 0u);
  EXPECT_EQ(sequential.stats.commit_colour_classes, 0u);
  EXPECT_GT(waved.stats.parallel_commits, 0u);
  EXPECT_GT(waved.stats.commit_colour_classes, 0u);
  // parallel_commits counts the planned members: each plans and commits
  // once on a lane, so none needs a fixup, the count does not depend on
  // the wave size, and every member whose build came back non-empty
  // (plans_built, the same on both engines) is among them.
  EXPECT_EQ(waved.stats.commit_conflict_fixups, 0u);
  EXPECT_EQ(waved.stats.parallel_commits, run_sharded(setup, 1).stats.parallel_commits);
  EXPECT_EQ(waved.stats.plans_built, sequential.stats.plans_built);
  EXPECT_GE(waved.stats.parallel_commits, waved.stats.plans_built);
}

TEST(ParallelCommit, LayeredColouringIsValid) {
  // Property check on the colouring itself: (a) every colour is below the
  // class count, (b) slots without a contention set stay in class 0, and
  // (c) any two conflicting slots i < j satisfy colour(i) < colour(j) — the
  // layered rule's order guarantee, strictly stronger than "different
  // colours", which is what lets class-by-class execution replay the
  // sequential commit order.
  util::Rng rng(12345);
  CommitColouring colouring;
  for (int round = 0; round < 50; ++round) {
    const auto nodes = static_cast<std::size_t>(rng.uniform_int(1, 40));
    const auto count = static_cast<std::size_t>(rng.uniform_int(0, 64));
    std::vector<std::vector<net::NodeId>> sets(count);
    std::vector<bool> null_set(count);
    for (std::size_t j = 0; j < count; ++j) {
      null_set[j] = rng.uniform() < 0.2;  // mirrors slots that will not plan
      const auto degree = static_cast<std::size_t>(rng.uniform_int(0, 6));
      for (std::size_t d = 0; d < degree; ++d) {
        sets[j].push_back(static_cast<net::NodeId>(
            rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1)));
      }
    }
    colouring.colour_wave(count, nodes, [&](std::size_t j) -> std::span<const net::NodeId> {
      if (null_set[j]) return {};
      return sets[j];
    });
    for (std::size_t j = 0; j < count; ++j) {
      EXPECT_LT(colouring.colour[j], colouring.classes);
      if (null_set[j]) {
        EXPECT_EQ(colouring.colour[j], 0u);
        continue;
      }
      for (std::size_t i = 0; i < j; ++i) {
        if (null_set[i]) continue;
        bool conflict = false;
        for (const net::NodeId a : sets[i]) {
          for (const net::NodeId b : sets[j]) conflict = conflict || a == b;
        }
        if (conflict) {
          EXPECT_LT(colouring.colour[i], colouring.colour[j]);
        }
      }
    }
  }
}

// ----------------------------------------------------------- TimingWheel ---
//
// The timing wheel is the event queue's only store; its former wheel vs
// binary-heap cases are Golden rows below, and sim_property_test holds its
// pop order to a (time, sequence) reference queue.

TEST(TimingWheel, WheelRunsReproduceThemselvesAndReportTelemetry) {
  RunSpec setup;
  setup.seed = 78;
  setup.parallel = 4;
  setup.churn = true;
  const RunOutput a = run_setup(setup);
  expect_identical(a, run_setup(setup));
  EXPECT_GT(a.stats.events_wheeled, 0u) << "the wheels reported no scheduled events";
}

// ------------------------------------------------------ CandidateBuild ---
//
// Candidates are built per plan from the neighbours' presence bits
// (stream_candidate_build_test holds the word kernel to a brute-force
// reference); the former plan-gate cases are Golden rows below.

TEST(CandidateBuild, ShardedChurnRunsReproduceThemselvesAndBuildPlans) {
  RunSpec setup;
  setup.seed = 92;
  setup.parallel = 4;
  setup.churn = true;
  const RunOutput a = run_setup(setup);
  expect_identical(a, run_setup(setup));
  EXPECT_GT(a.stats.plans_built, 0u) << "no plan ever built candidates";
}

// ---------------------------------------------------------------- Golden ---
//
// Committed digests of fixed-seed runs, recorded before a plane's twin was
// deleted (the availability plane's rescan, absolute-keying and ungated
// twins; the per-peer tick dispatch, the legacy pending and arrival
// containers and the binary-heap event store): each row is the RunSpec of
// a former on/off case of those planes, so the one path that remains must
// still land on the digest both legs produced.  The hash
// covers the field set bench/e2e's digest_leg covers — every SwitchMetrics
// field, the overhead accountant's bit counts and the EngineStats rows of
// class kOutput (stream/engine_stats.hpp; scan-work, gate, lane and memory
// telemetry are excluded by design).  Every run also checks that each
// retired row reads 0.

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

std::string golden_digest(const RunOutput& out) {
  Digest d;
  d.add(static_cast<std::uint64_t>(out.metrics.size()));
  for (const SwitchMetrics& m : out.metrics) {
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
    for (const TrackPoint& t : m.track) {
      d.add(t.time);
      d.add(t.undelivered_ratio_s1);
      d.add(t.delivered_ratio_s2);
      d.add(static_cast<std::uint64_t>(t.live_tracked));
    }
    d.add(m.overhead_ratio);
    d.add(m.control_ratio);
    d.add(m.data_segments);
  }
  const gossip::OverheadAccountant& o = out.overhead;
  for (const std::uint64_t v : {o.buffer_map_bits(), o.request_bits(), o.data_bits(),
                                o.membership_bits(), o.data_segments()}) {
    d.add(v);
  }
  // The output rows, in struct order; the double by its bits.
  for_each_stat([&](const StatRow& row, auto field) {
    if (row.cls != StatClass::kOutput) return;
    const auto v = out.stats.*field;
    if constexpr (std::is_floating_point_v<decltype(v)>) {
      d.add(v);
    } else {
      d.add(static_cast<std::uint64_t>(v));
    }
  });
  return d.hex();
}

struct GoldenRow {
  const char* name;
  RunSpec spec;
  const char* digest;
};

void PrintTo(const GoldenRow& row, std::ostream* os) { *os << row.name; }

// Row name = the former case it replaces (Incremental* = IncrementalAvailability
// vs the rescan, Windowed* = WindowedAvailability, Gate* = PlanGate on vs off).
// Windowed cases whose spec equals an Incremental row share that row.
// HeavyEviction* rows run B = 64, so every delivery evicts, also inside the
// parallel book lanes; they were recorded before the stream buffer's two
// backends were merged into one, and re-recorded when the availability map
// stopped being 600 slots wide whatever B is: at B = 64 a full map is
// 84 bits, not 620, which moves only the buffer-map bit count and the two
// overhead ratios in the digest.  BatchDispatch*, PeerPool*, TimingWheel* and
// CdnAssist* rows replace the per-peer vs batched dispatch, legacy vs flat
// containers and heap vs wheel cases whose spec no earlier row covers; both
// legs of every such case gave the row's digest before the per-peer
// dispatch, the legacy containers and the heap were deleted.
const GoldenRow kGoldenRows[] = {
    {"IncrementalFastSwitch", {}, "3a56a9e9415b683b"},
    {"IncrementalNormalSwitch", {.fast = false}, "585d5fbeea3d9fe2"},
    {"IncrementalChurn", {.seed = 19, .churn = true}, "cb9b09797a670bdf"},
    {"IncrementalPerLinkCapacity", {.seed = 27, .per_link = true}, "351d196cdd2bdc4e"},
    {"IncrementalMultiSwitch",
     {.seed = 23, .sources = {0, 1, 2}, .switch_times = {0.0, 60.0}},
     "2c88ec7595d096e1"},
    {"IncrementalLockstepChurn",
     {.seed = 37, .churn = true, .stagger = false},
     "61756adf79c6a316"},
    {"IncrementalBatchDispatch", {.seed = 43}, "18c90187517fad70"},
    {"IncrementalBatchChurn", {.seed = 47, .churn = true}, "737fca75900010ee"},
    {"IncrementalBatchChurnSelfRepro", {.seed = 53, .churn = true}, "e6f109e79343a233"},
    {"WindowedParallelDelivery", {.seed = 47, .parallel = 4}, "54eaaa7c5b94baeb"},
    {"GateSequential", {.seed = 81}, "920ec390b1ceb6d3"},
    {"GateSingleShard", {.seed = 82, .parallel = 1}, "9026c23d7837cdab"},
    {"GateShardedChurn", {.seed = 83, .churn = true, .parallel = 4}, "ec05f84bbfa9ec79"},
    {"GateSevenShardMultiSwitch",
     {.seed = 84, .parallel = 7, .sources = {0, 1, 2}, .switch_times = {0.0, 40.0}},
     "d355bcd95fea3802"},
    {"GateCdnAssist", {.seed = 85, .cdn = true, .parallel = 4}, "6aac0b44e8f0a56a"},
    {"GateFlashCrowdPeerPool", {.seed = 86, .flash_joins = 30, .parallel = 4}, "6b2d545b0f86900f"},
    {"GateFullComposition",
     {.seed = 87, .churn = true, .token_bucket = true, .parallel = 7},
     "85eaeee05d78cb58"},
    {"GateSteadySwarm", {.seed = 90, .steady = true}, "db8f6e06de9b8987"},
    {"HeavyEvictionChurn",
     {.seed = 19, .buffer_capacity = 64, .churn = true},
     "20c49e9934d87045"},
    {"HeavyEvictionShardedPeerPoolChurn",
     {.seed = 47, .buffer_capacity = 64, .churn = true, .parallel = 4},
     "f93ab6f212268299"},
    {"BatchDispatchLockstepTicks", {.seed = 31, .stagger = false}, "9aeeceac4578a869"},
    {"PeerPoolTokenBucket", {.seed = 29, .token_bucket = true}, "5421dbecdd591109"},
    {"PeerPoolFlashCrowd", {.seed = 67, .flash_joins = 40}, "821559dc73726f46"},
    {"TimingWheelSequential", {.seed = 71}, "e3d75a7729606254"},
    {"TimingWheelSingleShard", {.seed = 72, .parallel = 1}, "f290200ceddaf958"},
    {"TimingWheelShardedChurn", {.seed = 73, .churn = true, .parallel = 4}, "79ec4535f6604583"},
    {"TimingWheelSevenShardMultiSwitch",
     {.seed = 74, .parallel = 7, .sources = {0, 1, 2}, .switch_times = {0.0, 40.0}},
     "47ad35b0376a6a08"},
    {"TimingWheelCdnAssist", {.seed = 75, .cdn = true, .parallel = 4}, "5dde7d128bf712fb"},
    {"TimingWheelFlashCrowdPeerPool",
     {.seed = 76, .flash_joins = 30, .parallel = 4},
     "f3885fed6c3607dc"},
    {"TimingWheelFullComposition",
     {.seed = 77, .churn = true, .token_bucket = true, .parallel = 7},
     "3e7228598d8b6a02"},
    {"CdnAssistWithMemoryPlane", {.seed = 101, .cdn = true}, "6434bfdfa4fa2792"},
    {"CdnAssistWithBatchDispatch", {.seed = 103, .cdn = true}, "ab0f1c9e5573e190"},
};

class Golden : public ::testing::TestWithParam<GoldenRow> {};

TEST_P(Golden, DigestMatchesCommittedValue) {
  const RunOutput out = run_setup(GetParam().spec);
  EXPECT_EQ(golden_digest(out), GetParam().digest);
  for_each_stat([&](const StatRow& row, auto field) {
    if (row.cls == StatClass::kRetired) {
      EXPECT_EQ(out.stats.*field, 0u) << row.name;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Rows, Golden, ::testing::ValuesIn(kGoldenRows),
                         [](const ::testing::TestParamInfo<GoldenRow>& info) {
                           return std::string(info.param.name);
                         });

TEST(EngineStatsTable, RowNamesAreUnique) {
  std::set<std::string_view> names;
  for (const StatRow& row : kStatRows) EXPECT_TRUE(names.insert(row.name).second) << row.name;
}

TEST(Determinism, DifferentSeedsProduceDifferentRuns) {
  RunSpec a;
  RunSpec b;
  b.seed = 8;
  EXPECT_NE(run_setup(a).metrics.front().avg_prepared_time(),
            run_setup(b).metrics.front().avg_prepared_time());
}

}  // namespace
}  // namespace gs::stream
