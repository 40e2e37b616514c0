// The switch timeline: epoch/session bookkeeping for single- and
// multi-switch runs.
//
// Owns what "switch k" means — the serial source sessions, the segment id
// counter and each session's [first, last] id range, the per-switch metrics
// rows, overhead snapshots and the completion predicate.  The engine owns the clock and the peers; it tells the
// timeline when a switch fires and the timeline keeps the books.
#pragma once

#include <cstdint>
#include <vector>

#include "gossip/overhead.hpp"
#include "net/graph.hpp"
#include "stream/metrics.hpp"
#include "stream/peer_node.hpp"
#include "stream/segment.hpp"

namespace gs::stream {

class SwitchTimeline {
 public:
  /// Declares the serial source timeline: sources[k] streams session k;
  /// session k (k>=1) starts at switch_times[k-1] (strictly increasing).
  /// `node_count` bounds the source ids.
  void set_sources(std::size_t node_count, std::vector<net::NodeId> sources,
                   std::vector<double> switch_times);

  [[nodiscard]] bool configured() const noexcept { return !sessions_.empty(); }
  [[nodiscard]] const std::vector<Session>& sessions() const noexcept { return sessions_; }
  [[nodiscard]] Session& session(std::size_t k);
  [[nodiscard]] const Session& session(std::size_t k) const;
  [[nodiscard]] std::size_t session_count() const noexcept { return sessions_.size(); }
  [[nodiscard]] const std::vector<double>& switch_times() const noexcept {
    return switch_times_;
  }
  [[nodiscard]] std::size_t switch_count() const noexcept { return switch_times_.size(); }
  /// Most recent switch that fired (-1 before the first).
  [[nodiscard]] int current_switch() const noexcept { return current_switch_; }

  /// Allocates the next global segment id to session k, stamping the
  /// session's first id on its first segment.
  SegmentId append_segment(std::size_t k);
  /// The id the next generated segment takes (= segments generated so far).
  [[nodiscard]] SegmentId next_id() const noexcept { return next_id_; }
  /// Session whose id range holds the generated segment `id`: the first
  /// session still streaming or ending at or after `id`.
  [[nodiscard]] SessionIndex session_of(SegmentId id) const;

  [[nodiscard]] SwitchMetrics& metrics(int k);
  [[nodiscard]] const std::vector<SwitchMetrics>& results() const noexcept { return metrics_; }

  /// Marks switch k fired at `now`: ends session k at segment `last_of_old`
  /// and stamps the metrics row.
  void begin_switch(int k, double now, SegmentId last_of_old);

  /// Switch index whose old session ends at `id`; -1 when `id` is not a
  /// session boundary.
  [[nodiscard]] int switch_ending_at(SegmentId id) const;

  /// The new stream's startup-prefix length for switch k: Qs, clamped to
  /// the next session's length when it already ended shorter.
  [[nodiscard]] std::size_t required_prefix(int k, std::size_t q_startup) const;

  /// Initialises a peer's Q1/Q2 counters for switch k, releasing any
  /// still-armed gate from a previous switch at time `now` (serial model:
  /// the peer follows the stream; its startup buffering now concerns the
  /// newest boundary).
  void init_switch_counters(PeerNode& p, int k, double now, std::size_t q_startup) const;

  /// Censors a peer still mid-way through a switch before `new_switch`.
  void censor_stale(const PeerNode& p, int new_switch);

  /// True when every tracked node of switch k finished/prepared or was
  /// censored.
  [[nodiscard]] bool switch_closed(int k) const;
  /// True when the last switch has fired and is closed.
  [[nodiscard]] bool experiment_complete() const;

  /// Appends one per-period sample of the Fig. 5/9 ratio tracks for the
  /// current switch (no-op before the first switch or once it closed).
  void sample_tracks(double now, const std::vector<PeerNode>& peers, std::size_t q_startup);

  /// Censors peers that never completed within the horizon (run end).
  void censor_unfinished(const std::vector<PeerNode>& peers);

  /// Captures the overhead counters at a switch instant so per-switch
  /// ratios can be computed as deltas.
  void capture_overhead(const gossip::OverheadAccountant& overhead);
  /// Captures the run-end counters and fills the per-switch overhead
  /// ratios from the snapshot deltas.
  void finalize_overhead(const gossip::OverheadAccountant& overhead);

 private:
  struct OverheadSnapshot {
    std::uint64_t buffer_map_bits = 0;
    std::uint64_t request_bits = 0;
    std::uint64_t data_bits = 0;
    std::uint64_t data_segments = 0;
  };
  [[nodiscard]] static OverheadSnapshot take_snapshot(
      const gossip::OverheadAccountant& overhead);

  std::vector<Session> sessions_;
  std::vector<double> switch_times_;
  SegmentId next_id_ = 0;
  std::vector<SwitchMetrics> metrics_;
  std::vector<OverheadSnapshot> overhead_snapshots_;
  int current_switch_ = -1;
};

}  // namespace gs::stream
