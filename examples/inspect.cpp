// Engine introspection: runs one experiment and dumps distributions of the
// internal state (lag, stalls, requests, Q0) that explain the headline
// metrics.  Useful for debugging and for understanding the simulation.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "experiments/config.hpp"
#include "experiments/scenario.hpp"
#include "experiments/settings.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  gs::exp::Config config = gs::exp::Config::paper_static(200, gs::exp::AlgorithmKind::kFast, 7);
  config.engine.debug_series = true;  // the time series below reads it
  gs::util::Flags flags;
  flags.define_bool("dynamic", false, "apply 5%/5% churn per period (--churn 0.05)");
  gs::exp::define_settings(flags, config, {"debug-series"});
  if (!flags.parse(argc, argv)) return 0;
  gs::exp::read_settings(flags, config);
  if (flags.get_bool("dynamic")) config.enable_churn();

  auto engine = gs::exp::make_engine(config);
  const auto metrics = engine->run();
  const auto& m = metrics.front();
  const auto& stats = engine->stats();

  std::printf("=== run summary (%s, %zu nodes, %s capacity) ===\n",
              std::string(gs::exp::to_string(config.algorithm)).c_str(), config.node_count,
              std::string(gs::stream::to_string(config.engine.supplier_capacity)).c_str());
  std::printf("generated=%llu delivered=%llu requests=%llu rejected=%llu dups=%llu\n",
              (unsigned long long)stats.segments_generated,
              (unsigned long long)stats.segments_delivered,
              (unsigned long long)stats.requests_issued,
              (unsigned long long)stats.requests_rejected, (unsigned long long)stats.duplicates);
  std::printf("split_ticks=%llu old_req=%llu new_req=%llu\n",
              (unsigned long long)stats.split_ticks, (unsigned long long)stats.old_stream_requests,
              (unsigned long long)stats.new_stream_requests);
  std::printf("%s\n", m.to_string().c_str());

  std::vector<double> stalls;
  std::vector<double> q0s;
  std::vector<double> rates_in;
  for (std::size_t v = 0; v < engine->peer_count(); ++v) {
    const auto& p = engine->peer(static_cast<gs::net::NodeId>(v));
    if (p.is_source || !p.tracked) continue;
    stalls.push_back(p.playback.stall_time());
    q0s.push_back(static_cast<double>(p.q0_at_switch));
    rates_in.push_back(p.in_budget.rate());
  }
  std::printf("stall_time:   %s\n", gs::util::Summary::of(stalls).to_string().c_str());
  std::printf("Q0_at_switch: %s\n", gs::util::Summary::of(q0s).to_string().c_str());
  std::printf("inbound_rate: %s\n", gs::util::Summary::of(rates_in).to_string().c_str());
  std::printf("finish_times: %s\n", gs::util::Summary::of(m.finish_times).to_string().c_str());
  std::printf("prepared:     %s\n", gs::util::Summary::of(m.prepared_times).to_string().c_str());

  std::printf("\n%8s %8s %12s %14s %10s %10s %10s %10s %8s %8s\n", "time", "head", "cursor_gap",
              "frontier_gap", "max_front", "delivered", "requests", "cands", "oldreq", "newreq");
  for (const auto& d : engine->debug_series()) {
    const bool post_switch = d.time >= -1.0 && d.time <= 30.0;
    if (!post_switch && static_cast<long long>(d.time) % 5 != 0) continue;
    std::printf("%8.0f %8lld %12.1f %14.1f %10.0f %10llu %10llu %10llu %8llu %8llu\n", d.time,
                static_cast<long long>(d.head), d.mean_cursor_gap, d.mean_frontier_gap,
                d.max_frontier_gap, (unsigned long long)d.delivered_this_period,
                (unsigned long long)d.requests_this_period,
                (unsigned long long)d.candidates_this_period,
                (unsigned long long)d.old_req_this_period,
                (unsigned long long)d.new_req_this_period);
  }
  return 0;
}
