// Ablation A7: CDN-assisted fast switch.
//
// Pairs runs of the fast algorithm with and without the CDN patch plane on
// the *same* scenario seed (same topology, bandwidths, churn schedule) and
// reports the switch-time win the assist buys against the byte bill the
// CDN pays for it.  The assist changes dynamics by design — this bench is
// the cost/benefit ledger, not a determinism check (those live in
// stream_determinism_test).
//
//   ./bench_ablation_cdn_assist --sizes 1000,4000 --trials 3
//   ./bench_ablation_cdn_assist --sizes 10000 --trials 2 --json out.json
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/rng.hpp"

namespace {

struct Point {
  std::size_t node_count = 0;
  std::size_t trials = 0;
  double gossip_switch_time = 0.0;  ///< avg preparing time, assist off
  double assist_switch_time = 0.0;  ///< avg preparing time, assist on
  double gossip_finish_time = 0.0;
  double assist_finish_time = 0.0;
  double cdn_mb = 0.0;              ///< CDN bytes served per run (MiB)
  double assisted = 0.0;            ///< (peer, switch) enrollments per run
  double handoffs = 0.0;
  double rejected = 0.0;            ///< patch requests past the accept horizon
  double mean_assist_s = 0.0;       ///< enrollment -> handoff/exit

  [[nodiscard]] double reduction() const {
    return gossip_switch_time <= 0.0
               ? 0.0
               : (gossip_switch_time - assist_switch_time) / gossip_switch_time;
  }
};

Point measure(const gs::exp::Config& base, std::size_t node_count, std::size_t trials) {
  Point point;
  point.node_count = node_count;
  point.trials = trials;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    gs::exp::Config config = base;
    config.node_count = node_count;
    config.algorithm = gs::exp::AlgorithmKind::kFast;
    // Same scenario seed with and without the assist: paired comparison.
    config.seed = gs::util::splitmix64(base.seed ^ gs::util::splitmix64(trial + 1));

    config.enable_cdn_assist(false);
    const gs::exp::RunResult off = gs::exp::run_once(config);
    config.enable_cdn_assist(true);
    const gs::exp::RunResult on = gs::exp::run_once(config);

    point.gossip_switch_time += off.primary().avg_prepared_time();
    point.assist_switch_time += on.primary().avg_prepared_time();
    point.gossip_finish_time += off.primary().avg_finish_time();
    point.assist_finish_time += on.primary().avg_finish_time();
    point.cdn_mb += static_cast<double>(on.stats.cdn_bytes_served) / (1024.0 * 1024.0);
    point.assisted += static_cast<double>(on.stats.cdn_assisted_switches);
    point.handoffs += static_cast<double>(on.stats.cdn_handoffs);
    point.rejected += static_cast<double>(on.stats.cdn_requests_rejected);
    point.mean_assist_s += on.stats.cdn_mean_assist_s;
  }
  const auto denom = static_cast<double>(trials);
  point.gossip_switch_time /= denom;
  point.assist_switch_time /= denom;
  point.gossip_finish_time /= denom;
  point.assist_finish_time /= denom;
  point.cdn_mb /= denom;
  point.assisted /= denom;
  point.handoffs /= denom;
  point.rejected /= denom;
  point.mean_assist_s /= denom;
  return point;
}

void write_json(const std::string& path, const std::vector<Point>& points) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"cdn_assist\",\n  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(out,
                 "    {\"peers\": %zu, \"trials\": %zu, \"gossip_switch_s\": %.6f, "
                 "\"assist_switch_s\": %.6f, \"reduction\": %.6f, \"gossip_finish_s\": %.6f, "
                 "\"assist_finish_s\": %.6f, \"cdn_mb\": %.3f, \"assisted\": %.1f, "
                 "\"handoffs\": %.1f, \"rejected\": %.1f, \"mean_assist_s\": %.6f}%s\n",
                 p.node_count, p.trials, p.gossip_switch_time, p.assist_switch_time,
                 p.reduction(), p.gossip_finish_time, p.assist_finish_time, p.cdn_mb,
                 p.assisted, p.handoffs, p.rejected, p.mean_assist_s,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  gs::exp::Config base = gs::exp::Config::paper_static(1000, gs::exp::AlgorithmKind::kFast);
  gs::benchtool::BenchOptions options;
  gs::util::Flags flags;
  flags.define("json", "", "also write the points as JSON to this path");
  // measure() owns the ablation axis.
  if (!gs::benchtool::parse_bench_flags(argc, argv, options, base, "500,1000,2000",
                                        {"cdn-assist"}, &flags)) {
    return 0;
  }
  const std::string json_path = flags.get("json");

  std::vector<Point> points;
  points.reserve(options.sizes.size());
  for (const std::size_t n : options.sizes) {
    points.push_back(measure(base, n, options.trials));
  }

  std::printf("A7: CDN-assisted switch vs pure gossip (fast algorithm, paired seeds)\n");
  std::printf("%8s %10s %10s %8s %10s %10s %9s %9s %9s %9s %11s\n", "peers", "gossip_s",
              "assist_s", "redux", "fin_goss", "fin_asst", "cdn_mb", "assisted", "handoffs",
              "rejected", "mean_asst_s");
  for (const Point& p : points) {
    std::printf("%8zu %10.3f %10.3f %7.1f%% %10.3f %10.3f %9.2f %9.1f %9.1f %9.1f %11.3f\n",
                p.node_count, p.gossip_switch_time, p.assist_switch_time,
                100.0 * p.reduction(), p.gossip_finish_time, p.assist_finish_time, p.cdn_mb,
                p.assisted, p.handoffs, p.rejected, p.mean_assist_s);
  }
  std::printf("\nexpect assist_s < gossip_s at every size: the CDN serves the Qs-prefix\n"
              "head the swarm has not replicated yet, then hands off; cdn_mb is the\n"
              "byte bill for that head start (and should stay a small fraction of the\n"
              "stream: at most Qs segments per assisted peer, usually far fewer).\n");

  if (!json_path.empty()) write_json(json_path, points);
  return 0;
}
