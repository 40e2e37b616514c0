#include "gossip/membership.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gs::gossip {

MembershipProtocol::MembershipProtocol(net::Graph& graph, std::size_t target_degree, util::Rng rng,
                                       OverheadAccountant* overhead)
    : graph_(graph), target_degree_(target_degree), rng_(rng), overhead_(overhead) {
  alive_.resize(graph_.node_count(), 0);
  live_index_.resize(graph_.node_count(), kNpos);
}

void MembershipProtocol::bootstrap_all_live() {
  for (net::NodeId v = 0; v < graph_.node_count(); ++v) mark_live(v);
}

bool MembershipProtocol::alive(net::NodeId v) const {
  return v < alive_.size() && alive_[v] != 0;
}

void MembershipProtocol::mark_live(net::NodeId v) {
  if (v >= alive_.size()) {
    alive_.resize(v + 1, 0);
    live_index_.resize(v + 1, kNpos);
  }
  if (alive_[v]) return;
  alive_[v] = 1;
  live_index_[v] = live_list_.size();
  live_list_.push_back(v);
}

void MembershipProtocol::mark_dead(net::NodeId v) {
  if (v >= alive_.size() || !alive_[v]) return;
  alive_[v] = 0;
  // Swap-remove from the live list, fixing the displaced node's index.
  const std::size_t pos = live_index_[v];
  GS_CHECK_NE(pos, kNpos);
  const net::NodeId last = live_list_.back();
  live_list_[pos] = last;
  live_index_[last] = pos;
  live_list_.pop_back();
  live_index_[v] = kNpos;
}

net::NodeId MembershipProtocol::random_live() {
  GS_CHECK_GT(live_list_.size(), 0u);
  const auto pick = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(live_list_.size()) - 1));
  return live_list_[pick];
}

net::NodeId MembershipProtocol::join() {
  const net::NodeId v = graph_.add_node();
  alive_.resize(graph_.node_count(), 0);
  live_index_.resize(graph_.node_count(), kNpos);
  // Wire to target_degree random live peers (fewer if the overlay is tiny).
  const std::size_t want = std::min(target_degree_, live_list_.size());
  std::size_t made = 0;
  std::size_t attempts = 0;
  while (made < want && attempts < want * 20 + 20) {
    ++attempts;
    const net::NodeId peer = random_live();
    if (graph_.add_edge(v, peer)) ++made;
  }
  mark_live(v);
  ++joins_;
  if (overhead_ != nullptr) overhead_->charge_membership(made + 1);
  if (on_join_) on_join_(v);
  return v;
}

void MembershipProtocol::leave(net::NodeId v) {
  GS_CHECK(alive(v));
  // Snapshot neighbours before detaching; they are the repair candidates.
  const std::vector<net::NodeId> affected(graph_.neighbors(v).begin(), graph_.neighbors(v).end());
  graph_.isolate(v);
  mark_dead(v);
  ++leaves_;
  if (overhead_ != nullptr) overhead_->charge_membership(affected.size());
  for (const net::NodeId u : affected) {
    if (alive(u)) repair_node(u);
  }
}

void MembershipProtocol::repair_node(net::NodeId v) {
  std::size_t attempts = 0;
  while (graph_.degree(v) < target_degree_ && live_list_.size() > 1 &&
         attempts < target_degree_ * 30 + 30) {
    ++attempts;
    const net::NodeId peer = random_live();
    if (peer == v || !alive(peer)) continue;
    if (graph_.add_edge(v, peer) && overhead_ != nullptr) overhead_->charge_membership(1);
  }
}

void MembershipProtocol::repair_all() {
  // Iterate a snapshot: repair_node mutates degrees but not the live list.
  const std::vector<net::NodeId> snapshot = live_list_;
  for (const net::NodeId v : snapshot) {
    if (alive(v) && graph_.degree(v) < target_degree_) repair_node(v);
  }
}

}  // namespace gs::gossip
