// Figure 2: the delivery-order comparison between the fast and normal
// switch algorithms on the paper's example — the node can receive 7 data
// segments per scheduling period but 10 are available (5 of S1, 5 of S2).
#include <cstdio>
#include <vector>

#include "core/fast_switch.hpp"
#include "core/normal_switch.hpp"
#include "util/flags.hpp"

namespace {

using gs::stream::CandidateSegment;
using gs::stream::ScheduleContext;
using gs::stream::StreamEpoch;
using gs::stream::SupplierView;

ScheduleContext fig2_context() {
  ScheduleContext ctx;
  ctx.period = 1.0;
  ctx.playback_rate = 10.0;
  ctx.inbound_rate = 7.0;  // "can receive 7 data segments per period"
  ctx.id_play = 101;
  ctx.s1_end = 105;
  ctx.s2_begin = 106;
  ctx.q1_remaining = 5;
  ctx.q2_remaining = 5;
  ctx.q_consecutive = 10;
  ctx.q_startup = 50;
  ctx.buffer_capacity = 600;
  ctx.max_requests = 7;
  return ctx;
}

/// The two suppliers every Fig. 2 candidate lists.
std::vector<SupplierView> fig2_suppliers() {
  SupplierView s1;
  s1.node = 1;
  s1.send_rate = 30.0;
  s1.buffer_position = 40;
  SupplierView s2;
  s2.node = 2;
  s2.send_rate = 25.0;
  s2.buffer_position = 90;
  return {s1, s2};
}

/// The ten candidates, each viewing `suppliers` (which must outlive them).
std::vector<CandidateSegment> fig2_candidates(const std::vector<SupplierView>& suppliers) {
  std::vector<CandidateSegment> candidates;
  for (gs::stream::SegmentId id = 101; id <= 110; ++id) {
    CandidateSegment c;
    c.id = id;
    c.epoch = id <= 105 ? StreamEpoch::kOld : StreamEpoch::kNew;
    c.suppliers = suppliers;
    candidates.push_back(c);
  }
  return candidates;
}

void print_order(const char* label, const std::vector<gs::stream::ScheduledRequest>& requests,
                 gs::stream::SegmentId s1_end) {
  std::printf("%-22s", label);
  for (const auto& r : requests) {
    if (r.id <= s1_end) {
      std::printf(" S1#%lld", static_cast<long long>(r.id - 101 + 1));
    } else {
      std::printf(" S2#%lld", static_cast<long long>(r.id - s1_end));
    }
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Flags flags;
  if (!flags.parse(argc, argv)) return 0;

  std::printf("=== Fig. 2: delivery order, budget 7/period, 5xS1 + 5xS2 available ===\n");
  const ScheduleContext ctx = fig2_context();
  const std::vector<SupplierView> suppliers = fig2_suppliers();

  gs::core::NormalSwitchScheduler normal;
  auto candidates = fig2_candidates(suppliers);
  print_order("normal switch:", normal.schedule(ctx, candidates), ctx.s1_end);

  gs::core::FastSwitchScheduler fast;
  candidates = fig2_candidates(suppliers);
  gs::core::RateSplit split{};
  print_order("fast switch:", fast.schedule_with_split(ctx, candidates, &split), ctx.s1_end);
  std::printf("\nclosed-form split: r1=%.3f r2=%.3f (case %d) -> I1=%.3f I2=%.3f\n", split.r1,
              split.r2, split.case_id, split.i1, split.i2);
  std::printf("paper: normal fetches all of S1 first; fast interleaves both streams.\n");
  return 0;
}
