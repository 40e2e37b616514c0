// Distance-education scenario: a lecture hall with audience churn (students
// join and leave continuously) and one lecturer hand-over; reports both the
// switch delay and playback quality (stalls).
//
//   ./distance_education [--nodes 800] [--churn 0.05] [--seed 33]
#include <cstdio>

#include "experiments/config.hpp"
#include "experiments/scenario.hpp"
#include "experiments/settings.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  gs::exp::Config base = gs::exp::Config::paper_dynamic(800, gs::exp::AlgorithmKind::kFast, 33);
  gs::util::Flags flags;
  gs::exp::define_settings(flags, base, {"algorithm"});  // runs both
  if (!flags.parse(argc, argv)) return 0;
  gs::exp::read_settings(flags, base);

  std::printf("distance education: %zu students, %.0f%% churn per period, lecturer hand-over\n\n",
              base.node_count, base.engine.churn_leave_fraction * 100.0);

  for (const auto algorithm : {gs::exp::AlgorithmKind::kNormal, gs::exp::AlgorithmKind::kFast}) {
    gs::exp::Config config = base;
    config.algorithm = algorithm;

    auto engine = gs::exp::make_engine(config);
    const auto metrics = engine->run();
    const auto& m = metrics.front();

    std::vector<double> stalls;
    for (std::size_t v = 0; v < engine->peer_count(); ++v) {
      const auto& peer = engine->peer(static_cast<gs::net::NodeId>(v));
      if (peer.is_source || !peer.playback.started()) continue;
      stalls.push_back(peer.playback.stall_time());
    }
    const gs::util::Summary stall_summary = gs::util::Summary::of(stalls);

    std::printf("%s switch algorithm:\n", std::string(gs::exp::to_string(algorithm)).c_str());
    std::printf("  hand-over delay: avg %.2fs, p90 %.2fs, max %.2fs\n", m.avg_prepared_time(),
                gs::util::percentile(m.prepared_times, 0.9), m.max_prepared_time());
    std::printf("  audience: %zu tracked, %zu completed, %zu left mid-switch\n", m.tracked,
                m.prepared_s2, m.censored_prepare);
    std::printf("  playback stalls: mean %.2fs, p90 %.2fs (over %zu students)\n",
                stall_summary.mean, stall_summary.p90, stall_summary.n);
    std::printf("  churn handled: %zu joins, %zu leaves; overhead %.4f\n\n",
                engine->stats().joins, engine->stats().leaves, m.overhead_ratio);
  }
  return 0;
}
