// Ablation A5: the diversity reservation of the pull substrate.
//
// Shows why the substrate reserves a slice of the request budget for
// randomized fresh-segment fetches: without it, deadline-ordered pulling
// degenerates into a source-rooted tree whose interior saturates, and the
// mesh cannot sustain the playback rate.  The collapse shows in sustained
// live streaming, so this bench runs a *cold start* (no constructed stable
// phase) with a long live phase and measures the mesh's health directly:
// per-node lag behind the live head and playback stalls.
#include "bench_common.hpp"
#include "experiments/scenario.hpp"

int main(int argc, char** argv) {
  gs::exp::Config base = gs::exp::Config::paper_static(300, gs::exp::AlgorithmKind::kFast);
  base.engine.warm_start = false;  // cold start: the mesh must bootstrap
  base.engine.warmup = 40.0;
  gs::benchtool::BenchOptions options;
  if (!gs::benchtool::parse_bench_flags(argc, argv, options, base, "300",
                                        {"diversity", "debug-series"})) {
    return 0;
  }
  const std::size_t nodes = options.sizes.empty() ? 300 : options.sizes.front();

  std::printf("=== A5: diversity reservation, cold-start live streaming (%zu nodes) ===\n",
              nodes);
  std::printf("%10s  %14s  %16s  %16s  %14s\n", "fraction", "avg_switch", "mean_stall(s)",
              "end_lag(segs)", "deliv/node/s");
  for (const double fraction : {0.0, 0.1, 0.25, 0.4, 0.6}) {
    double switch_time = 0.0;
    double stall = 0.0;
    double lag = 0.0;
    double rate = 0.0;
    for (std::size_t trial = 0; trial < options.trials; ++trial) {
      gs::exp::Config config = gs::benchtool::trial_config(base, nodes, trial);
      config.priority.diversity_fraction = fraction;
      config.engine.debug_series = true;  // the mesh-health columns read it
      auto engine = gs::exp::make_engine(config);
      const auto metrics = engine->run();
      switch_time += metrics.front().avg_prepared_time();
      double stall_sum = 0.0;
      std::size_t counted = 0;
      for (std::size_t v = 0; v < engine->peer_count(); ++v) {
        const auto& p = engine->peer(static_cast<gs::net::NodeId>(v));
        if (p.is_source || !p.playback.started()) continue;
        stall_sum += p.playback.stall_time();
        ++counted;
      }
      stall += counted > 0 ? stall_sum / static_cast<double>(counted) : 0.0;
      const auto& series = engine->debug_series();
      // Mesh health at the switch instant (end of the live warmup).
      for (const auto& point : series) {
        if (point.time >= -1.5 && point.time <= -0.4) {
          lag += point.mean_frontier_gap;
          rate += static_cast<double>(point.delivered_this_period) /
                  static_cast<double>(nodes);
          break;
        }
      }
    }
    const auto n = static_cast<double>(options.trials);
    std::printf("%10.2f  %14.2f  %16.2f  %16.1f  %14.2f\n", fraction, switch_time / n,
                stall / n, lag / n, rate / n);
  }
  std::printf("\nfraction 0: the frontier gap grows without bound and delivery trails the\n"
              "play rate (10/s); a modest reservation (0.1-0.25) keeps the mesh healthy.\n");
  return 0;
}
