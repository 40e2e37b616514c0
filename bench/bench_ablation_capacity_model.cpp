// Ablation A6: supplier capacity model.
//
// kSharedFifo (default): one FIFO per uplink shared by all requesters —
// request order matters, the switch algorithms separate.
// kPerLink: the literal reading of the paper's requester-local tau(j)
// bookkeeping — supply becomes abundant and the algorithms nearly tie.
// kTokenBucket: shared uplink with burst tolerance — contention persists
// (long-run rate equals the FIFO's), so the separation should survive.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  gs::exp::Config base = gs::exp::Config::paper_static(1000, gs::exp::AlgorithmKind::kFast);
  gs::benchtool::BenchOptions options;
  if (!gs::benchtool::parse_bench_flags(argc, argv, options, base, "500,1000",
                                        {"capacity-model"})) {
    return 0;
  }

  for (const auto model : {gs::stream::SupplierCapacityModel::kSharedFifo,
                           gs::stream::SupplierCapacityModel::kPerLink,
                           gs::stream::SupplierCapacityModel::kTokenBucket}) {
    base.engine.supplier_capacity = model;
    const auto points = gs::exp::sweep_sizes(base, options.sizes, options.trials);
    gs::exp::print_switch_reduction(
        std::string("A6: supplier capacity = ") + std::string(gs::stream::to_string(model)),
        points);
  }
  std::printf("\nexpect the reduction ratio to collapse under per-link capacity (without\n"
              "uplink contention the S1-first order costs the normal algorithm little)\n"
              "but to survive token-bucket uplinks, whose bursts relax spacing, not rate.\n");
  return 0;
}
