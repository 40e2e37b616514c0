// Streaming engine integration at small scale: end-to-end switch runs,
// determinism, churn, multi-switch, push extension, capacity models.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/fast_switch.hpp"
#include "core/normal_switch.hpp"
#include "net/topology.hpp"
#include "stream/engine.hpp"

namespace gs::stream {
namespace {

struct SmallWorld {
  net::Graph graph;
  net::LatencyModel latency;
};

SmallWorld make_world(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  net::Graph graph = net::preferential_attachment(n, 2, rng);
  net::repair_min_degree(graph, 5, rng);
  std::vector<double> pings(n);
  for (auto& ping : pings) ping = rng.uniform(20.0, 200.0);
  return {std::move(graph), net::LatencyModel(std::move(pings))};
}

EngineConfig small_config(std::uint64_t seed) {
  EngineConfig config;
  config.seed = seed;
  config.horizon = 120.0;
  return config;
}

std::unique_ptr<Engine> make_engine(std::size_t n, std::uint64_t seed, EngineConfig config,
                                    bool fast = true) {
  SmallWorld world = make_world(n, seed);
  std::shared_ptr<SchedulerStrategy> strategy;
  if (fast) {
    strategy = std::make_shared<core::FastSwitchScheduler>();
  } else {
    strategy = std::make_shared<core::NormalSwitchScheduler>();
  }
  auto engine = std::make_unique<Engine>(std::move(world.graph), std::move(world.latency),
                                         config, std::move(strategy));
  engine->set_sources({0, 1}, {0.0});
  return engine;
}

TEST(Engine, CompletesSwitchExperiment) {
  auto engine = make_engine(60, 1, small_config(1));
  const auto metrics = engine->run();
  ASSERT_EQ(metrics.size(), 1u);
  const SwitchMetrics& m = metrics.front();
  EXPECT_EQ(m.tracked, 58u) << "two sources excluded";
  EXPECT_EQ(m.finished_s1, 58u);
  EXPECT_EQ(m.prepared_s2, 58u);
  EXPECT_EQ(m.censored_finish, 0u);
  EXPECT_GT(m.avg_prepared_time(), 0.0);
  EXPECT_GT(m.avg_finish_time(), 0.0);
}

TEST(Engine, DeterministicUnderFixedSeed) {
  const auto run = [] {
    auto engine = make_engine(50, 7, small_config(7));
    const auto metrics = engine->run();
    return std::make_tuple(metrics.front().avg_prepared_time(),
                           metrics.front().avg_finish_time(),
                           engine->stats().segments_delivered,
                           engine->stats().requests_issued);
  };
  EXPECT_EQ(run(), run());
}

TEST(Engine, DifferentSeedsDiffer) {
  auto a = make_engine(50, 3, small_config(3));
  auto b = make_engine(50, 4, small_config(4));
  const auto ma = a->run();
  const auto mb = b->run();
  EXPECT_NE(ma.front().avg_prepared_time(), mb.front().avg_prepared_time());
}

TEST(Engine, TrackRatiosMonotone) {
  auto engine = make_engine(60, 5, small_config(5));
  const auto metrics = engine->run();
  const auto& track = metrics.front().track;
  ASSERT_GE(track.size(), 3u);
  for (std::size_t i = 1; i < track.size(); ++i) {
    EXPECT_LE(track[i].undelivered_ratio_s1, track[i - 1].undelivered_ratio_s1 + 1e-9)
        << "undelivered ratio of S1 never rises";
    EXPECT_GE(track[i].delivered_ratio_s2, track[i - 1].delivered_ratio_s2 - 1e-9)
        << "delivered ratio of S2 never falls";
  }
  EXPECT_GE(track.front().undelivered_ratio_s1, 0.0);
  EXPECT_LE(track.front().delivered_ratio_s2, 0.1) << "S2 starts undelivered";
}

TEST(Engine, OverheadInPaperBand) {
  auto engine = make_engine(80, 9, small_config(9));
  const auto metrics = engine->run();
  // S5.3: "a little larger than 1%".
  EXPECT_GT(metrics.front().overhead_ratio, 0.003);
  EXPECT_LT(metrics.front().overhead_ratio, 0.05);
}

TEST(Engine, WarmStartSeedsBacklog) {
  auto engine = make_engine(60, 11, small_config(11));
  (void)engine->run();
  // Q0 snapshots: non-source peers carry a backlog at the switch.
  std::size_t with_backlog = 0;
  for (std::size_t v = 0; v < engine->peer_count(); ++v) {
    const PeerNode& p = engine->peer(static_cast<net::NodeId>(v));
    if (!p.is_source && p.q0_at_switch > 0) ++with_backlog;
  }
  EXPECT_GT(with_backlog, engine->peer_count() / 2);
}

TEST(Engine, SourcesExcludedFromPlayback) {
  auto engine = make_engine(50, 13, small_config(13));
  (void)engine->run();
  EXPECT_FALSE(engine->peer(0).playback.started());
  EXPECT_FALSE(engine->peer(1).playback.started());
  EXPECT_EQ(engine->peer(0).requests_issued, 0u);
}

TEST(Engine, SessionBoundariesRecorded) {
  auto engine = make_engine(50, 15, small_config(15));
  (void)engine->run();
  const auto& sessions = engine->sessions();
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_TRUE(sessions[0].ended());
  EXPECT_TRUE(sessions[1].started());
  EXPECT_EQ(sessions[1].first, sessions[0].last + 1) << "id_begin = id_end + 1 (S3)";
  // Generation rate: history + warmup at p = 10.
  const auto& registry = engine->registry();
  EXPECT_GT(registry.size(), 500u);
}

TEST(Engine, AnnouncementCarriedByNewSessionSegments) {
  auto engine = make_engine(50, 17, small_config(17));
  (void)engine->run();
  const auto& registry = engine->registry();
  const auto& sessions = engine->sessions();
  const SegmentInfo& first_s2 = registry.info(sessions[1].first);
  EXPECT_EQ(first_s2.prev_session_end, sessions[0].last);
  EXPECT_EQ(first_s2.session, 1);
}

TEST(Engine, ChurnRunCompletes) {
  EngineConfig config = small_config(19);
  config.churn_leave_fraction = 0.05;
  config.churn_join_fraction = 0.05;
  auto engine = make_engine(80, 19, config);
  const auto metrics = engine->run();
  const SwitchMetrics& m = metrics.front();
  EXPECT_GT(engine->stats().joins, 0u);
  EXPECT_GT(engine->stats().leaves, 0u);
  // Every tracked node is accounted for: prepared or censored.
  EXPECT_EQ(m.prepared_s2 + m.censored_prepare, m.tracked);
  EXPECT_EQ(m.finished_s1 + m.censored_finish, m.tracked);
  EXPECT_GT(m.prepared_s2, m.tracked / 2) << "most nodes complete despite churn";
}

TEST(Engine, ChurnKeepsPopulationStable) {
  EngineConfig config = small_config(21);
  config.churn_leave_fraction = 0.05;
  config.churn_join_fraction = 0.05;
  auto engine = make_engine(80, 21, config);
  (void)engine->run();
  std::size_t alive = 0;
  for (std::size_t v = 0; v < engine->peer_count(); ++v) {
    if (engine->peer(static_cast<net::NodeId>(v)).alive) ++alive;
  }
  EXPECT_NEAR(static_cast<double>(alive), 80.0, 12.0);
}

TEST(Engine, MultiSwitchSerialSessions) {
  SmallWorld world = make_world(60, 23);
  EngineConfig config = small_config(23);
  config.horizon = 200.0;
  auto engine = std::make_unique<Engine>(std::move(world.graph), std::move(world.latency),
                                         config, std::make_shared<core::FastSwitchScheduler>());
  engine->set_sources({0, 1, 2}, {0.0, 60.0});
  const auto metrics = engine->run();
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_GT(metrics[0].prepared_s2, 0u);
  EXPECT_GT(metrics[1].prepared_s2, 0u);
  EXPECT_DOUBLE_EQ(metrics[1].switch_time, 60.0);
  const auto& sessions = engine->sessions();
  ASSERT_EQ(sessions.size(), 3u);
  EXPECT_EQ(sessions[2].first, sessions[1].last + 1);
}

TEST(Engine, PushExtensionDeliversAndCostsMore) {
  EngineConfig plain = small_config(25);
  auto a = make_engine(60, 25, plain);
  (void)a->run();

  EngineConfig push = small_config(25);
  push.push_fresh_segments = true;
  push.push_fanout = 2;
  auto b = make_engine(60, 25, push);
  (void)b->run();

  EXPECT_GT(b->stats().segments_pushed, 0u);
  // Push creates redundant deliveries (GridMedia's trade-off).
  EXPECT_GE(b->stats().duplicates, a->stats().duplicates);
}

TEST(Engine, PerLinkCapacityModelRuns) {
  EngineConfig config = small_config(27);
  config.supplier_capacity = SupplierCapacityModel::kPerLink;
  auto engine = make_engine(60, 27, config);
  const auto metrics = engine->run();
  EXPECT_EQ(metrics.front().prepared_s2, metrics.front().tracked);
}

TEST(Engine, ColdStartStillCompletes) {
  // Without warm start the mesh is less efficient but the experiment must
  // still finish within the horizon at small scale.
  EngineConfig config = small_config(29);
  config.warm_start = false;
  config.warmup = 20.0;
  auto engine = make_engine(40, 29, config);
  const auto metrics = engine->run();
  EXPECT_GT(metrics.front().prepared_s2, 0u);
}

TEST(Engine, FinishTimesAfterSwitchAreNonNegative) {
  auto engine = make_engine(60, 31, small_config(31));
  const auto metrics = engine->run();
  for (const double t : metrics.front().finish_times) EXPECT_GE(t, 0.0);
  for (const double t : metrics.front().prepared_times) EXPECT_GT(t, 0.0);
}

TEST(Engine, SubsystemWiring) {
  // The decomposed engine exposes its subsystems: the transfer plane
  // carries the configured capacity model and the timeline closes the run.
  EngineConfig config = small_config(35);
  config.supplier_capacity = SupplierCapacityModel::kPerLink;
  auto engine = make_engine(60, 35, config);
  EXPECT_EQ(engine->transfers().kind(), SupplierCapacityModel::kPerLink);
  EXPECT_EQ(engine->transfers().capacity().name(), "per-link");
  EXPECT_EQ(engine->timeline().current_switch(), -1) << "no switch before run()";
  (void)engine->run();
  EXPECT_EQ(engine->timeline().current_switch(), 0);
  EXPECT_TRUE(engine->timeline().experiment_complete());
  EXPECT_EQ(engine->timeline().sessions().size(), engine->sessions().size());
}

TEST(Engine, StatsConsistency) {
  auto engine = make_engine(60, 33, small_config(33));
  (void)engine->run();
  const EngineStats& stats = engine->stats();
  EXPECT_LE(stats.segments_delivered, stats.requests_issued + stats.segments_pushed);
  EXPECT_GT(stats.split_ticks, 0u);
  EXPECT_GT(stats.new_stream_requests, 0u);
}

TEST(Engine, ShortAcceptHorizonReachesSupplierFallback) {
  // An accept horizon below tau makes suppliers reject requests the greedy
  // planned within the period, so tick_commit's fallback looks each
  // rejected segment up among the plan's candidates (a miss aborts) and
  // retries its other suppliers — inline and on the parallel commit lanes.
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> counts;
  for (const std::size_t shards : {0, 4}) {
    EngineConfig config = small_config(37);
    config.accept_horizon = 0.1;
    config.parallel_shards = shards;
    auto engine = make_engine(60, 37, config);
    (void)engine->run();
    const EngineStats& stats = engine->stats();
    EXPECT_GT(stats.requests_rejected, 0u) << "shards " << shards;
    counts.emplace_back(stats.requests_issued, stats.requests_rejected,
                        stats.segments_delivered);
  }
  EXPECT_EQ(counts[0], counts[1]) << "the fallback is shard-count independent";
}

}  // namespace
}  // namespace gs::stream
