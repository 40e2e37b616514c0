#include "stream/transfer_plane.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/check.hpp"

namespace gs::stream {

std::string_view to_string(SupplierCapacityModel kind) noexcept {
  switch (kind) {
    case SupplierCapacityModel::kSharedFifo:
      return "shared-fifo";
    case SupplierCapacityModel::kPerLink:
      return "per-link";
    case SupplierCapacityModel::kTokenBucket:
      return "token-bucket";
  }
  return "unknown";
}

namespace {

/// One FIFO per supplier shared by all requesters: a new transfer starts
/// when the supplier's uplink drains, regardless of who asked.
class SharedFifoCapacity final : public CapacityModel {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return to_string(SupplierCapacityModel::kSharedFifo);
  }

  [[nodiscard]] double backlog_end(net::NodeId /*requester*/,
                                   net::NodeId supplier) const override {
    return uplink_busy_until_[supplier];
  }

  void commit(net::NodeId /*requester*/, net::NodeId supplier, double /*start*/,
              double until) override {
    uplink_busy_until_[supplier] = until;
  }

  [[nodiscard]] bool supplier_shared() const noexcept override { return true; }

  void ensure_nodes(std::size_t count) override {
    if (uplink_busy_until_.size() < count) uplink_busy_until_.resize(count, kIdle);
  }

 private:
  std::vector<double> uplink_busy_until_;
};

/// Each (requester, supplier) link carries up to the supplier's outbound
/// rate independently; queueing is requester-local (Algorithm 1 literally).
class PerLinkCapacity final : public CapacityModel {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return to_string(SupplierCapacityModel::kPerLink);
  }

  [[nodiscard]] double backlog_end(net::NodeId requester,
                                   net::NodeId supplier) const override {
    const auto& links = link_busy_until_[requester];
    const auto it = links.find(supplier);
    return it == links.end() ? kIdle : it->second;
  }

  void commit(net::NodeId requester, net::NodeId supplier, double /*start*/,
              double until) override {
    link_busy_until_[requester][supplier] = until;
  }

  [[nodiscard]] bool supplier_shared() const noexcept override { return false; }

  void ensure_nodes(std::size_t count) override {
    if (link_busy_until_.size() < count) link_busy_until_.resize(count);
  }

 private:
  /// link_busy_until_[requester][supplier] = when that link frees up.
  std::vector<std::unordered_map<net::NodeId, double>> link_busy_until_;
};

/// Token-bucket uplink via the GCRA (virtual scheduling) formulation: per
/// supplier, `tat` is the theoretical arrival time of the next conforming
/// transfer and grows by one transmission time per commit; a transfer may
/// start up to `burst` transmission times *before* tat (the bucket depth).
/// An uplink idle long enough refills completely — tat trails the clock —
/// so backlog_end goes to kIdle and a full burst passes with zero queueing.
class TokenBucketCapacity final : public CapacityModel {
 public:
  explicit TokenBucketCapacity(double burst) : burst_(burst) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return to_string(SupplierCapacityModel::kTokenBucket);
  }

  [[nodiscard]] double backlog_end(net::NodeId /*requester*/,
                                   net::NodeId supplier) const override {
    const Bucket& bucket = buckets_[supplier];
    if (bucket.tat == kIdle) return kIdle;
    // burst tokens => `burst` conforming back-to-back transfers: the k-th
    // commit after a full refill puts tat at start + k*tx, so eligibility
    // tat - (burst-1)*tx crosses `start` exactly when the bucket empties.
    // burst == 1 degenerates to kSharedFifo's serialised spacing.
    return bucket.tat - (burst_ - 1.0) * bucket.tx;
  }

  void commit(net::NodeId /*requester*/, net::NodeId supplier, double start,
              double until) override {
    Bucket& bucket = buckets_[supplier];
    bucket.tx = until - start;
    // Refill up to the clock (an idle bucket holds a full burst), then
    // drain one token's worth of credit.
    bucket.tat = std::max(bucket.tat == kIdle ? start : bucket.tat, start) + bucket.tx;
  }

  [[nodiscard]] bool supplier_shared() const noexcept override { return true; }

  void ensure_nodes(std::size_t count) override {
    if (buckets_.size() < count) buckets_.resize(count);
  }

 private:
  struct Bucket {
    double tat = kIdle;  ///< theoretical arrival time of the next transfer
    double tx = 0.0;     ///< last transmission time (1/outbound_rate)
  };
  double burst_;
  std::vector<Bucket> buckets_;
};

}  // namespace

std::unique_ptr<CapacityModel> make_capacity_model(SupplierCapacityModel kind,
                                                   double token_bucket_burst) {
  switch (kind) {
    case SupplierCapacityModel::kSharedFifo:
      return std::make_unique<SharedFifoCapacity>();
    case SupplierCapacityModel::kPerLink:
      return std::make_unique<PerLinkCapacity>();
    case SupplierCapacityModel::kTokenBucket:
      return std::make_unique<TokenBucketCapacity>(token_bucket_burst);
  }
  GS_CHECK(false) << "unreachable capacity model";
  return nullptr;
}

TransferPlane::TransferPlane(sim::Simulator& sim, net::LatencyModel& latency,
                             SupplierCapacityModel kind, double accept_horizon,
                             DeliveryFn on_delivery, double token_bucket_burst)
    : sim_(sim),
      latency_(latency),
      kind_(kind),
      accept_horizon_(accept_horizon),
      on_delivery_(std::move(on_delivery)),
      capacity_(make_capacity_model(kind, token_bucket_burst)) {
  GS_CHECK(on_delivery_ != nullptr);
  GS_CHECK_GE(token_bucket_burst, 1.0);
  if (!capacity_->supplier_shared()) {
    private_uplink_ = make_capacity_model(SupplierCapacityModel::kSharedFifo);
  }
}

void TransferPlane::ensure_nodes(std::size_t count) {
  nodes_ = std::max(nodes_, count);
  capacity_->ensure_nodes(count);
  if (private_uplink_) private_uplink_->ensure_nodes(count);
}

double TransferPlane::queue_delay(net::NodeId requester, net::NodeId supplier,
                                  double now) const {
  return std::max(0.0, capacity_->backlog_end(requester, supplier) - now);
}

bool TransferPlane::request_staged(PeerNode& requester, const PeerNode& supplier, SegmentId id,
                                   double now, double& deliver_at) {
  (void)id;  // the payload rides with schedule_delivery
  GS_CHECK_LT(supplier.id, nodes_);
  const double start = std::max(now, capacity_->backlog_end(requester.id, supplier.id));
  if (start - now > accept_horizon_) {
    // Link/supplier backlog too deep; the node retries elsewhere next period.
    return false;
  }
  const double tx = 1.0 / supplier.outbound_rate;
  capacity_->commit(requester.id, supplier.id, start, start + tx);
  // The jitter draw comes from the requester's own rng — member-local, so a
  // staged issue draws exactly what the inline issue would.
  deliver_at = start + tx + latency_.jittered_delay_s(requester.id, supplier.id, requester.rng);
  return true;
}

void TransferPlane::schedule_delivery(net::NodeId to, SegmentId id, double deliver_at,
                                      double now) {
  // One pooled event per transfer, routed to the target peer's shard.
  // Deliveries land within accept_horizon + latency of now, so this is an
  // O(1) append into a near-wheel bucket at most a few quanta ahead — the
  // hot path the timing wheel exists for.
  sim_.after(deliver_at - now, *this, to, static_cast<std::uint64_t>(id));
}

bool TransferPlane::request(PeerNode& requester, const PeerNode& supplier, SegmentId id,
                            double now) {
  double deliver_at = 0.0;
  if (!request_staged(requester, supplier, id, now, deliver_at)) return false;
  schedule_delivery(requester.id, id, deliver_at, now);
  return true;
}

bool TransferPlane::push(PeerNode& from, net::NodeId to, SegmentId id, double now) {
  GS_CHECK_LT(from.id, nodes_);
  CapacityModel& uplink = push_uplink();
  const double start = std::max(now, uplink.backlog_end(to, from.id));
  if (start - now > accept_horizon_) return false;  // own uplink saturated
  const double tx = 1.0 / from.outbound_rate;
  uplink.commit(to, from.id, start, start + tx);
  const double deliver_at = start + tx + latency_.jittered_delay_s(to, from.id, from.rng);
  sim_.after(deliver_at - now, *this, to, static_cast<std::uint64_t>(id));
  return true;
}

void TransferPlane::on_event(std::uint64_t a, std::uint64_t b) {
  on_delivery_(static_cast<net::NodeId>(a), static_cast<SegmentId>(b));
}

void TransferPlane::on_batch(const sim::PooledBatchItem* items, std::size_t count) {
  // batchable() guarantees the handler exists whenever the queue batches.
  on_delivery_batch_(items, count);
}

double TransferPlane::uplink_busy_until(net::NodeId v) const {
  GS_CHECK_LT(v, nodes_);
  // The push uplink is keyed by supplier, so the requester id is unused.
  return push_uplink().backlog_end(v, v);
}

}  // namespace gs::stream
