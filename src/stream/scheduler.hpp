// Scheduling strategy interface: the seam between the streaming substrate
// and the paper's algorithms.
//
// Every scheduling period the engine hands the strategy the node-local view
// (candidate segments with their suppliers, rate and playback state) and the
// strategy returns an ordered request list.  Global constraints are enforced
// when issuing — the inbound budget by the engine, supplier backlog by the
// TransferPlane's capacity model; strategies see only information a real
// peer would have.  Each PeerNode holds a handle to its strategy, so
// heterogeneous policies per peer are a wiring change, not a refactor.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "gossip/buffer_map.hpp"
#include "net/graph.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace gs::stream {

using gossip::SegmentId;
using gossip::kNoSegment;

/// One neighbour able to supply a candidate segment.
struct SupplierView {
  net::NodeId node = 0;
  /// R(j): the supplier's advertised sending rate, segments/second.
  double send_rate = 0.0;
  /// p_ij: the segment's distance from the tail of the supplier's buffer
  /// (1 = newest).  Used by the rarity term (eq. 8).
  std::size_t buffer_position = 1;
  /// Estimated backlog at the supplier in seconds, observed from recent
  /// response times (the paper's R_ij is a measured per-link rate, so the
  /// estimate is information a real peer has).  Algorithm 1's local
  /// bookkeeping starts from this value.
  double queue_delay = 0.0;
};

/// Which stream a candidate belongs to during a switch.
enum class StreamEpoch : std::uint8_t {
  kOld,  ///< the ending source S1
  kNew,  ///< the starting source S2
};

/// Supplier lists are rebuilt from scratch every scheduling period, so they
/// live in a bump arena: the sequential plan's per-tick arena or the
/// planning lane's arena (parallel_shards > 0).  The default-constructed
/// allocator falls back to the heap, which is what hand-built lists use.
using SupplierList = std::vector<SupplierView, util::ArenaAllocator<SupplierView>>;

/// A segment the node needs and at least one neighbour can supply.
struct CandidateSegment {
  SegmentId id = kNoSegment;
  StreamEpoch epoch = StreamEpoch::kOld;
  SupplierList suppliers;

  CandidateSegment() = default;
  /// Puts the supplier list in `alloc`'s arena.
  explicit CandidateSegment(const util::ArenaAllocator<SupplierView>& alloc)
      : suppliers(alloc) {}
};

/// Node-local scheduling inputs (paper Table 1/2 notation in comments).
struct ScheduleContext {
  double now = 0.0;
  double period = 1.0;         ///< tau
  double playback_rate = 10.0; ///< p
  double inbound_rate = 0.0;   ///< I
  /// Segment currently playing / next due (id_play); kNoSegment before start.
  SegmentId id_play = kNoSegment;
  /// End of the old stream (id_end); kNoSegment when no switch is known.
  SegmentId s1_end = kNoSegment;
  /// First segment of the new stream (id_begin = id_end + 1).
  SegmentId s2_begin = kNoSegment;
  std::size_t q_consecutive = 10;   ///< Q
  std::size_t q_startup = 50;       ///< Qs
  /// Q1: undelivered old-stream segments (all, not just available now).
  std::size_t q1_remaining = 0;
  /// Q2: undelivered segments of the new stream's startup prefix.
  std::size_t q2_remaining = 0;
  std::size_t buffer_capacity = 600;  ///< B
  /// Whole requests the node may issue this period.
  std::size_t max_requests = 0;
  /// Node-local randomness for order randomization within priority classes
  /// (segment diversity / swarming; see core::sort_by_priority).  May be
  /// null, in which case ordering is fully deterministic.
  util::Rng* rng = nullptr;
};

/// A request the strategy wants issued, in priority order.
struct ScheduledRequest {
  SegmentId id = kNoSegment;
  net::NodeId supplier = 0;
};

class SchedulerStrategy {
 public:
  virtual ~SchedulerStrategy() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Plans this period's requests.  `candidates` is owned by the caller,
  /// arrives in ascending id order and must not be reordered: the engine's
  /// supplier fallback finds a rejected request's candidate by binary
  /// search after the call.  Implementations must return at most
  /// ctx.max_requests requests, each naming a candidate's id and a supplier
  /// present in that candidate's supplier list, with no duplicate segment
  /// ids.
  [[nodiscard]] virtual std::vector<ScheduledRequest> schedule(
      const ScheduleContext& ctx, std::vector<CandidateSegment>& candidates) = 0;
};

}  // namespace gs::stream
