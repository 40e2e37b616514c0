// Video conference scenario: the paper's motivating application — several
// speakers take the floor in series, and every hand-over is a source
// switch whose startup delay the fast algorithm minimizes.
//
//   ./video_conference [--nodes 400] [--speakers 4] [--talk 60] [--seed 21]
#include <cstdio>

#include "experiments/config.hpp"
#include "experiments/runner.hpp"
#include "experiments/settings.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  gs::exp::Config base = gs::exp::Config::paper_static(400, gs::exp::AlgorithmKind::kFast, 21);
  gs::util::Flags flags;
  flags.define_int("speakers", 4, "number of serial speakers");
  flags.define_double("talk", 60.0, "seconds each speaker holds the floor");
  flags.define("log", "warn", "log level");
  // Both algorithms run; the talk length sets the switch times and horizon.
  gs::exp::define_settings(flags, base, {"algorithm", "horizon"});
  if (!flags.parse(argc, argv)) return 0;
  gs::util::set_log_level(gs::util::parse_log_level(flags.get("log")));
  gs::exp::read_settings(flags, base);

  const auto speakers = static_cast<std::size_t>(flags.get_int("speakers"));
  const double talk = flags.get_double("talk");
  base.switch_times.clear();
  for (std::size_t k = 0; k + 1 < speakers; ++k) {
    base.switch_times.push_back(talk * static_cast<double>(k));
  }
  base.engine.horizon = talk + 60.0;

  std::printf("video conference: %zu participants, %zu speakers, %.0fs per talk\n\n",
              base.node_count, speakers, talk);

  for (const auto algorithm : {gs::exp::AlgorithmKind::kNormal, gs::exp::AlgorithmKind::kFast}) {
    gs::exp::Config config = base;
    config.algorithm = algorithm;

    const gs::exp::RunResult result = gs::exp::run_once(config);
    std::printf("%s switch algorithm:\n", std::string(gs::exp::to_string(algorithm)).c_str());
    double total = 0.0;
    for (const auto& m : result.switches) {
      std::printf("  hand-over %d: avg startup delay %6.2fs (max %6.2fs, %zu/%zu listeners)\n",
                  m.switch_index + 1, m.avg_prepared_time(), m.max_prepared_time(), m.prepared_s2,
                  m.tracked);
      total += m.avg_prepared_time();
    }
    std::printf("  mean over hand-overs: %.2fs\n\n",
                total / static_cast<double>(result.switches.size()));
  }
  return 0;
}
