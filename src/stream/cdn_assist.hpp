// CDN-assisted fast switch: a capacity-limited patch-source plane.
//
// Real IPTV deployments cut channel-change latency below what swarm
// dissemination alone can deliver with a unicast "patch" stream: on a
// switch, a server bursts the head of the new session to the client, then
// hands off to the swarm once it has caught up (FCC-style fast channel
// change).  This plane models the server side of that hybrid: one virtual
// CDN node whose uplink is governed by the same CapacityModel zoo as peer
// uplinks (make_capacity_model), so concurrent patch bursts contend
// realistically, plus the per-peer controller —
//
//   BURST    actively patching the missing prefix of the new session from
//            the CDN; a rest-play-time heuristic pauses the burst when the
//            peer's buffered lead reaches pause_lead_s and resumes it when
//            the lead falls under resume_lead_s (hysteresis);
//   HANDOFF  the peer's gossip suppliers cover the patch window — the CDN
//            stands down but keeps watching: supplier churn that breaks
//            coverage while playback is about to underrun re-enters BURST;
//   OFF      not enrolled (no eligible switch, or the assist finished).
//
// The engine owns the policy *inputs* (which ids are missing, whether
// gossip suppliers cover the window — it holds the buffers, the timeline
// and the overlay) and posts the patch deliveries; the plane owns the
// per-peer state machine and the CDN uplink ledger, which returns each
// patch's arrival time like TransferPlane does.  Every entry point runs
// in the engine's sequential phases, so assisted runs stay deterministic
// for a fixed seed at every shard count — and when EngineConfig::cdn_assist
// is off the engine never constructs the plane, preserving the repo's
// bit-identity invariant for all existing flag combinations.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "stream/engine_stats.hpp"
#include "stream/transfer_plane.hpp"

namespace gs::stream {

/// Knobs of the CDN patch source (mirrors EngineConfig::cdn_assist_*).
struct CdnAssistConfig {
  double rate = 120.0;          ///< CDN uplink capacity (segments/s)
  double latency_ms = 40.0;     ///< fixed server->peer latency (no jitter)
  double accept_horizon = 2.0;  ///< max CDN backlog (s) before rejecting
  double pause_lead_s = 3.0;    ///< buffered lead that pauses a burst
  double resume_lead_s = 1.0;   ///< lead under which a paused burst resumes
  /// Contention policy of the CDN uplink.  kSharedFifo / kTokenBucket model
  /// one shared server uplink; kPerLink gives every peer an independent
  /// patch lane at `rate` (the unconstrained ablation).
  SupplierCapacityModel capacity = SupplierCapacityModel::kSharedFifo;
  double token_bucket_burst = 4.0;
};

class CdnAssistPlane {
 public:
  /// Per-peer assist state (see the file comment for the machine).
  enum class State : std::uint8_t { kOff, kBurst, kHandoff };

  /// What the controller needs to know about a peer this tick, computed by
  /// the engine from state the plane cannot see.
  struct PeerView {
    /// Eligible switch (active, boundary known, prefix not yet gathered);
    /// -1 exits any running assist.
    int switch_index = -1;
    /// Contiguous buffered seconds ahead of the playback anchor.
    double rest_play_s = 0.0;
    /// Every missing id of the (fully generated) patch window has at least
    /// one alive gossip supplier.
    bool suppliers_cover = false;
  };

  /// Counts enrollments, handoffs, pauses, resumes and rejected requests
  /// into the cdn_* rows of `stats`, which must outlive the plane (the
  /// engine counts the patches served as it delivers them).
  CdnAssistPlane(const CdnAssistConfig& config, EngineStats& stats);

  /// Grows per-peer state to cover node ids < `count` (overlay joins).
  void ensure_nodes(std::size_t count);

  /// Advances `peer`'s state machine against this tick's view.  Returns
  /// true when the peer should request patch segments now (BURST and not
  /// paused).
  bool control(net::NodeId peer, const PeerView& view, double now);

  /// Books one patch transfer to `peer` and writes its arrival time to
  /// `deliver_at`.  False when the CDN backlog exceeds the accept horizon
  /// (the peer retries next tick).
  bool request(net::NodeId peer, double now, double& deliver_at);

  [[nodiscard]] State state(net::NodeId peer) const;
  [[nodiscard]] bool paused(net::NodeId peer) const;
  /// Mean seconds from enrollment to handoff or assist end over the
  /// samples so far (0 without one).
  [[nodiscard]] double mean_assist_s() const noexcept;
  [[nodiscard]] std::size_t assist_samples() const noexcept { return assist_time_count_; }
  [[nodiscard]] const CdnAssistConfig& config() const noexcept { return config_; }

 private:
  struct PeerAssist {
    State state = State::kOff;
    bool paused = false;
    int switch_index = -1;
    double enroll_time = 0.0;
  };

  void exit_assist(PeerAssist& assist, double now);

  /// The CDN occupies supplier slot 0 of its private capacity model;
  /// requester ids are real peer ids (kPerLink keys on them).
  static constexpr net::NodeId kCdnNode = 0;

  CdnAssistConfig config_;
  EngineStats& stats_;
  std::unique_ptr<CapacityModel> capacity_;
  std::vector<PeerAssist> peers_;
  /// Enrollment -> handoff/exit seconds, summed and counted.
  double assist_time_sum_ = 0.0;
  std::size_t assist_time_count_ = 0;
};

}  // namespace gs::stream
