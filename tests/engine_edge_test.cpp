// Engine edge cases: short final sessions (gate fallback), lockstep ticks,
// minimal and huge warm-start lags, the availability map's size and
// overhead accounting windows.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/fast_switch.hpp"
#include "net/topology.hpp"
#include "stream/engine.hpp"

namespace gs::stream {
namespace {

struct World {
  net::Graph graph;
  net::LatencyModel latency;
};

World make_world(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  net::Graph graph = net::preferential_attachment(n, 2, rng);
  net::repair_min_degree(graph, 5, rng);
  std::vector<double> pings(n);
  for (auto& ping : pings) ping = rng.uniform(20.0, 120.0);
  return {std::move(graph), net::LatencyModel(std::move(pings))};
}

TEST(EngineEdge, ShortFinalSessionReleasesGates) {
  // The second switch happens only 3 s after the first, so session 1 holds
  // ~30 segments — fewer than Qs=50.  Playback must not deadlock: the gate
  // release falls back to "all existing segments received".
  World world = make_world(50, 41);
  EngineConfig config;
  config.seed = 41;
  config.horizon = 90.0;
  auto engine = std::make_unique<Engine>(std::move(world.graph), std::move(world.latency),
                                         config, std::make_shared<core::FastSwitchScheduler>());
  engine->set_sources({0, 1, 2}, {0.0, 3.0});
  const auto metrics = engine->run();
  ASSERT_EQ(metrics.size(), 2u);
  const auto& sessions = engine->sessions();
  ASSERT_EQ(sessions.size(), 3u);
  EXPECT_LT(sessions[1].last - sessions[1].first + 1, 50) << "session 1 shorter than Qs";
  // Despite the short session, playback crossed both boundaries for most
  // peers (no gate deadlock): the second switch's finish metric counts
  // nodes that finished playing session 1 entirely.
  EXPECT_GT(metrics[1].finished_s1 + metrics[1].censored_finish, 0u);
  EXPECT_GT(metrics[1].prepared_s2, metrics[1].tracked / 2);
}

TEST(EngineEdge, LockstepTicksStillComplete) {
  World world = make_world(60, 43);
  EngineConfig config;
  config.seed = 43;
  config.stagger_ticks = false;  // all peers tick at the same instants
  auto engine = std::make_unique<Engine>(std::move(world.graph), std::move(world.latency),
                                         config, std::make_shared<core::FastSwitchScheduler>());
  engine->set_sources({0, 1}, {0.0});
  const auto metrics = engine->run();
  EXPECT_EQ(metrics.front().prepared_s2, metrics.front().tracked);
}

TEST(EngineEdge, TinyHistoryClampsCursors) {
  // History shorter than the intended lag: cursors clamp to id 0 and the
  // run must still complete.
  World world = make_world(50, 47);
  EngineConfig config;
  config.seed = 47;
  config.history_seconds = 3.0;  // only 30 segments of history
  auto engine = std::make_unique<Engine>(std::move(world.graph), std::move(world.latency),
                                         config, std::make_shared<core::FastSwitchScheduler>());
  engine->set_sources({0, 1}, {0.0});
  const auto metrics = engine->run();
  EXPECT_EQ(metrics.front().prepared_s2, metrics.front().tracked);
}

TEST(EngineEdge, HugeFiniteLagStartsCursorsAtZero) {
  // Every warm-start lag of at least the history's head starts each cursor
  // at id 0, so a 1e300 backlog scale (accepted by validate()) must run
  // exactly like 1e6 instead of overflowing the cursor subtraction; and a
  // zero scale means no backlog even where N^exponent overflows.
  auto run_with = [](double scale, double exponent) {
    World world = make_world(40, 61);
    EngineConfig config;
    config.seed = 61;
    config.stable_backlog_scale = scale;
    config.stable_backlog_exponent = exponent;
    config.horizon = 20.0;
    auto engine = std::make_unique<Engine>(std::move(world.graph), std::move(world.latency),
                                           config, std::make_shared<core::FastSwitchScheduler>());
    engine->set_sources({0, 1}, {0.0});
    const auto metrics = engine->run();
    return std::make_tuple(metrics.front().finish_times, metrics.front().prepared_times,
                           engine->stats().segments_delivered, engine->stats().events_popped,
                           engine->overhead().buffer_map_bits());
  };
  EXPECT_EQ(run_with(1e300, 0.25), run_with(1e6, 0.25));
  EXPECT_EQ(run_with(0.0, 250.0), run_with(0.0, 0.25));
}

TEST(EngineEdge, AvailabilityMapSpansTheBuffer) {
  // A full availability map is one bit per buffer slot plus the 20-bit base
  // id, so its size follows B: 320 bits at B = 300, 620 at the paper's 600.
  for (const std::size_t capacity : {std::size_t{300}, std::size_t{600}}) {
    World world = make_world(40, 59);
    EngineConfig config;
    config.seed = 59;
    config.buffer_capacity = capacity;
    config.horizon = 20.0;
    auto engine = std::make_unique<Engine>(std::move(world.graph), std::move(world.latency),
                                           config, std::make_shared<core::FastSwitchScheduler>());
    engine->set_sources({0, 1}, {0.0});
    (void)engine->run();
    const std::uint64_t map_bits = capacity + 20;
    EXPECT_EQ(engine->overhead().wire().buffer_map_bits(), map_bits) << "B = " << capacity;
    EXPECT_GT(engine->overhead().buffer_map_bits(), 0u) << "B = " << capacity;
    EXPECT_EQ(engine->overhead().buffer_map_bits() % map_bits, 0u) << "B = " << capacity;
  }
}

TEST(EngineEdge, OverheadWindowExcludesWarmup) {
  // The accountant is disabled during warm-up: with a long warmup the
  // measured ratio must not inflate (same window as a short warmup).
  auto run_with_warmup = [](double warmup) {
    World world = make_world(60, 53);
    EngineConfig config;
    config.seed = 53;
    config.warmup = warmup;
    auto engine = std::make_unique<Engine>(std::move(world.graph), std::move(world.latency),
                                           config, std::make_shared<core::FastSwitchScheduler>());
    engine->set_sources({0, 1}, {0.0});
    return engine->run().front().overhead_ratio;
  };
  const double short_warmup = run_with_warmup(2.0);
  const double long_warmup = run_with_warmup(10.0);
  EXPECT_NEAR(short_warmup, long_warmup, short_warmup * 0.5)
      << "warm-up traffic leaked into the measurement window";
}

TEST(EngineEdge, ZeroChurnFractionsMeanNoChurnTask) {
  World world = make_world(50, 59);
  EngineConfig config;
  config.seed = 59;
  config.churn_leave_fraction = 0.0;
  config.churn_join_fraction = 0.0;
  auto engine = std::make_unique<Engine>(std::move(world.graph), std::move(world.latency),
                                         config, std::make_shared<core::FastSwitchScheduler>());
  engine->set_sources({0, 1}, {0.0});
  (void)engine->run();
  EXPECT_EQ(engine->stats().joins, 0u);
  EXPECT_EQ(engine->stats().leaves, 0u);
  EXPECT_EQ(engine->peer_count(), 50u);
}

TEST(EngineEdge, JoinOnlyChurnGrowsPopulation) {
  World world = make_world(60, 61);
  EngineConfig config;
  config.seed = 61;
  config.churn_leave_fraction = 0.0;
  config.churn_join_fraction = 0.05;
  auto engine = std::make_unique<Engine>(std::move(world.graph), std::move(world.latency),
                                         config, std::make_shared<core::FastSwitchScheduler>());
  engine->set_sources({0, 1}, {0.0});
  (void)engine->run();
  EXPECT_GT(engine->stats().joins, 0u);
  EXPECT_EQ(engine->stats().leaves, 0u);
  EXPECT_GT(engine->peer_count(), 60u);
  // Joiners attach with the membership target degree.
  const auto& graph = engine->graph();
  for (net::NodeId v = 60; v < graph.node_count(); ++v) {
    EXPECT_GE(graph.degree(v), 1u);
  }
}

}  // namespace
}  // namespace gs::stream
