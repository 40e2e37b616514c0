// Gossip membership: partial views with join/leave and degree repair.
//
// Modeled after the peer-sampling style of Ganesh et al. (the paper's
// reference [4]): every peer keeps a small partial view (its overlay
// neighbours); a joiner contacts the overlay and is wired to `target_degree`
// random live peers; when a peer leaves, neighbours whose view drops below
// the target re-fill it with random live peers.  The overlay graph is the
// single source of truth for views; this class mutates it and reports
// membership traffic for accounting.
#pragma once

#include <cstdint>
#include <vector>

#include "gossip/overhead.hpp"
#include "net/graph.hpp"
#include "util/rng.hpp"

namespace gs::gossip {

class MembershipProtocol {
 public:
  /// `pinned` nodes (sources) never leave and are never chosen for random
  /// attachment beyond their normal appearance in the live set.
  MembershipProtocol(net::Graph& graph, std::size_t target_degree, util::Rng rng,
                     OverheadAccountant* overhead = nullptr);

  /// Marks all current graph nodes live.  Call once after topology setup.
  void bootstrap_all_live();

  [[nodiscard]] bool alive(net::NodeId v) const;
  [[nodiscard]] const std::vector<net::NodeId>& live_nodes() const noexcept { return live_list_; }
  [[nodiscard]] std::size_t live_count() const noexcept { return live_list_.size(); }

  /// Adds a brand-new peer: allocates a graph node, wires it to
  /// `target_degree` random live peers, marks it live.  Returns its id.
  net::NodeId join();

  /// Removes `v` from the overlay: detaches its edges, marks it dead, and
  /// repairs neighbours whose degree fell below the target.
  void leave(net::NodeId v);

  /// Uniform random live node; requires live_count() > 0.
  [[nodiscard]] net::NodeId random_live();

 private:
  void mark_live(net::NodeId v);
  void mark_dead(net::NodeId v);
  void repair_node(net::NodeId v);

  net::Graph& graph_;
  std::size_t target_degree_;
  util::Rng rng_;
  OverheadAccountant* overhead_;

  std::vector<char> alive_;
  std::vector<net::NodeId> live_list_;
  /// live_index_[v] = position of v in live_list_, or npos.
  std::vector<std::size_t> live_index_;

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
};

}  // namespace gs::gossip
