// The transfer plane: the capacity ledger of supplier uplinks.
//
// Owns the contention state of every data transfer — who is busy sending
// until when — behind a pluggable CapacityModel, and prices each accepted
// transfer with its arrival time.  Peers and the engine never touch busy
// timestamps directly: they ask for a queue-delay estimate (the scheduler's
// tau(j) seed) and book pull/push transfers; the engine posts the delivery
// events on its own sink.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "net/graph.hpp"
#include "net/latency.hpp"
#include "stream/peer_node.hpp"

namespace gs::stream {

/// How a supplier's outbound rate constrains concurrent transfers.
enum class SupplierCapacityModel : std::uint8_t {
  /// One FIFO per supplier shared by all requesters (default).  Uplink
  /// contention is what makes the *order* of requests matter: under the
  /// normal algorithm every uplink serves the old stream first, so the new
  /// stream's dissemination wave crawls — the effect the fast algorithm
  /// exploits (and the reason its Fig. 2 order interleaves S1 and S2).
  kSharedFifo,
  /// Relaxed model: each (requester, supplier) link independently carries
  /// up to the supplier's outbound rate; queueing (tau(j)) is requester-
  /// local, matching the paper's Algorithm-1 bookkeeping literally.  Kept
  /// for the ablation bench: with per-link capacity, supply is abundant,
  /// steady-state lag collapses, and the switch algorithms nearly tie.
  kPerLink,
  /// Token-bucket uplink (GCRA): the supplier accrues one transfer token
  /// per 1/outbound_rate seconds up to a burst of
  /// EngineConfig::token_bucket_burst tokens, and a transfer starts as soon
  /// as a token is available.  Long-run throughput equals kSharedFifo's,
  /// but an idle uplink can serve a burst back to back instead of spacing
  /// every transfer by the transmission time — the shape of real rate
  /// limiters and shaped last-mile uplinks.
  kTokenBucket,
};

/// Canonical name of a capacity model; the single string table shared by
/// CapacityModel::name(), CLI parsing and report labels.
[[nodiscard]] std::string_view to_string(SupplierCapacityModel kind) noexcept;

/// The contention policy of the transfer plane.  A model answers one
/// question — when would a transfer on (requester, supplier) start? — and
/// records commitments.  Times are absolute; "idle" is far in the past so
/// `max(now, backlog_end())` yields `now`.
class CapacityModel {
 public:
  /// Sentinel for "never been busy" (matches max(now, ·) == now).
  static constexpr double kIdle = -1e300;

  virtual ~CapacityModel() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Absolute time the constrained resource frees up for a new transfer on
  /// (requester, supplier); kIdle when unqueued.
  [[nodiscard]] virtual double backlog_end(net::NodeId requester,
                                           net::NodeId supplier) const = 0;

  /// Records a transfer occupying the constrained resource from `start`
  /// until `until` (`until - start` is the transmission time).
  virtual void commit(net::NodeId requester, net::NodeId supplier, double start,
                      double until) = 0;

  /// True when commitments are keyed by the *supplier* (shared uplink
  /// state), so one requester's commit changes the backlog every other
  /// requester of that supplier observes.  The sharded commit wave uses
  /// this to decide whether wave members contend (and so need colouring).
  [[nodiscard]] virtual bool supplier_shared() const noexcept = 0;

  /// Grows per-node state to cover node ids < `count` (overlay joins).
  virtual void ensure_nodes(std::size_t count) = 0;
};

/// Capacity-model factory: a self-contained model of `kind` owning all of
/// its state (grown by ensure_nodes).  The TransferPlane builds its pull
/// and push uplinks with it, and the CDN-assist plane its patch-source
/// uplink, so every contention policy comes from the same model zoo.
[[nodiscard]] std::unique_ptr<CapacityModel> make_capacity_model(
    SupplierCapacityModel kind, double token_bucket_burst = 4.0);

class TransferPlane {
 public:
  /// `latency` must outlive the plane.  `token_bucket_burst` is the
  /// kTokenBucket burst depth in segments (ignored by other models).
  TransferPlane(net::LatencyModel& latency, SupplierCapacityModel kind, double accept_horizon,
                double token_bucket_burst = 4.0);

  /// Grows per-node state to cover node ids < `count`.
  void ensure_nodes(std::size_t count);

  [[nodiscard]] SupplierCapacityModel kind() const noexcept { return kind_; }
  [[nodiscard]] const CapacityModel& capacity() const noexcept { return *capacity_; }
  /// See CapacityModel::supplier_shared().
  [[nodiscard]] bool supplier_shared() const noexcept { return capacity_->supplier_shared(); }

  /// Estimated queueing delay (seconds from `now`) a request from
  /// `requester` to `supplier` would see; the SupplierView tau(j) seed.
  [[nodiscard]] double queue_delay(net::NodeId requester, net::NodeId supplier,
                                   double now) const;

  /// Books a pull transfer from `supplier` to `requester`: the acceptance
  /// test, the capacity commit and the jittered arrival time, written to
  /// `deliver_at` (transmission plus link latency).  Returns false —
  /// committing nothing, drawing no rng — on a backlog past the accept
  /// horizon.  The caller posts the delivery event.  The engine issues
  /// every tick's requests through this (the commit wave from concurrent
  /// lanes: same-colour members touch disjoint supplier state by
  /// construction) and stages (id, deliver_at) per member, then posts the
  /// deliveries in member order so event sequence numbers — and with them
  /// the global pop order — match the sequential engine exactly.
  bool request_staged(PeerNode& requester, const PeerNode& supplier, double now,
                      double& deliver_at);

  /// Books an unsolicited push from `from` to `to` on the pusher's own
  /// real uplink: the pull ledger when it is keyed by supplier
  /// (kSharedFifo's FIFO, kTokenBucket's tokens — two ledgers would let a
  /// supplier push and serve pulls at 2x its outbound rate), a private
  /// FIFO under kPerLink (per-link pulls deliberately bypass the uplink).
  /// Writes the arrival time to `deliver_at` as request_staged does; false
  /// when the uplink is saturated.
  bool push(PeerNode& from, net::NodeId to, double now, double& deliver_at);

  /// Absolute time `v`'s push uplink frees up for a new transfer
  /// (inspection/tests).
  [[nodiscard]] double uplink_busy_until(net::NodeId v) const;

 private:
  net::LatencyModel& latency_;
  SupplierCapacityModel kind_;
  double accept_horizon_;

  /// The push path's uplink model (see push()).
  [[nodiscard]] CapacityModel& push_uplink() const noexcept {
    return private_uplink_ ? *private_uplink_ : *capacity_;
  }

  /// Node ids < nodes_ are valid suppliers (the largest ensure_nodes count).
  std::size_t nodes_ = 0;
  std::unique_ptr<CapacityModel> capacity_;
  /// kPerLink only: a private kSharedFifo model standing in for the real
  /// uplink on the push path.
  std::unique_ptr<CapacityModel> private_uplink_;
};

}  // namespace gs::stream
