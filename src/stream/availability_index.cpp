#include "stream/availability_index.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gs::stream {

namespace {
constexpr std::size_t kWordBits = 64;

std::size_t align_down(std::size_t pos) { return pos - pos % kWordBits; }

std::size_t owner_anchor(const PeerNode& p) {
  const SegmentId from = p.playback_anchor();
  return from <= 0 ? 0 : static_cast<std::size_t>(from);
}

/// Supplier-window span in ids: the candidate range is at most
/// buffer_capacity wide and starts within a word of the anchored base; the
/// extra slack tracks a little ahead so slides reconstruct less.
std::size_t window_span(std::size_t buffer_capacity) {
  return (buffer_capacity + 192 + kWordBits - 1) / kWordBits * kWordBits;
}

}  // namespace

void AvailabilityIndex::build(const net::Graph& graph, const std::vector<PeerNode>& peers,
                              std::size_t buffer_capacity, PeerPool& pool) {
  pool_ = &pool;
  window_span_ = window_span(buffer_capacity);
  views_.assign(peers.size(), View{});
  for (net::NodeId v = 0; v < peers.size(); ++v) {
    if (peers[v].alive() && !peers[v].is_source()) build_view(graph, peers, v);
  }
}

void AvailabilityIndex::build_view(const net::Graph& graph, const std::vector<PeerNode>& peers,
                                   net::NodeId v) {
  View& w = views_[v];
  w.built = true;
  w.window_base = align_down(owner_anchor(peers[v]));
  w.supplier_count.assign(window_span_, 0);
  w.supplied.resize(window_span_);
  for (const net::NodeId nb : graph.neighbors(v)) {
    if (!peers[nb].alive()) continue;
    w.alive_neighbors.push_back(nb);  // graph adjacency is sorted by id
    add_supplier(w, peers[nb]);
  }
  recompute_work(v, w, peers[v].received);
}

const AvailabilityIndex::View& AvailabilityIndex::view(net::NodeId v) const {
  GS_CHECK_LT(v, views_.size());
  GS_CHECK(views_[v].built);
  return views_[v];
}

bool AvailabilityIndex::track_slot(const View& w, SegmentId id, std::size_t& slot) const {
  const auto pos = static_cast<std::size_t>(id);
  if (pos < w.window_base || pos >= w.window_base + window_span_) return false;
  slot = pos - w.window_base;
  return true;
}

void AvailabilityIndex::apply_gain(net::NodeId view, SegmentId id) {
  View& w = views_[view];
  if (!w.built) return;
  // The cached head tracks the whole stream, not just the window: the
  // candidate range's upper end must see neighbour heads that run ahead of
  // the owner's playback window.
  w.head = std::max(w.head, id);
  std::size_t slot = 0;
  if (!track_slot(w, id, slot)) return;  // beyond the window: sync_window reconstructs
  if (w.supplier_count[slot]++ == 0) {
    w.supplied.set(slot);
    // A fresh supplied bit may create work; whether it actually does would
    // take the owner's received word — a cold random load per transition
    // at 10^6 peers — so the summary marks the word unconditionally and
    // the owner's next empty build collapses it via try_quiesce.
    const std::size_t word = slot / kWordBits;
    if (!w.work_mask.test(word)) {
      w.work_mask.set(word);
      ++w.work_words;
      sync_work_lane(view, w);
    }
  }
}

bool AvailabilityIndex::apply_evict(net::NodeId view, SegmentId victim) {
  View& w = views_[view];
  if (!w.built) return false;
  std::size_t slot = 0;
  if (track_slot(w, victim, slot)) {
    auto& count = w.supplier_count[slot];
    GS_CHECK_GT(count, 0u);
    if (--count == 0) {
      w.supplied.reset(slot);
      // Losing a supplied bit can only reduce work; the summary stays
      // conservatively marked until an empty build quiesces the view.
    }
  }
  // Evicting the cached head is rare (needs heavy id reordering in the
  // owner's buffer); the caller recomputes from the settled buffers.
  return victim == w.head;
}

void AvailabilityIndex::recompute_head_for(const std::vector<PeerNode>& peers,
                                           net::NodeId view) {
  recompute_head(views_[view], peers);
}

void AvailabilityIndex::on_gain(const net::Graph& graph, net::NodeId owner, SegmentId id) {
  for (const net::NodeId nb : graph.neighbors(owner)) {
    if (!views_[nb].built) continue;
    apply_gain(nb, id);
    ++updates_;
  }
}

void AvailabilityIndex::on_evict(const net::Graph& graph, const std::vector<PeerNode>& peers,
                                 net::NodeId owner, SegmentId victim) {
  for (const net::NodeId nb : graph.neighbors(owner)) {
    if (!views_[nb].built) continue;
    if (apply_evict(nb, victim)) recompute_head(views_[nb], peers);
    ++updates_;
  }
}

bool AvailabilityIndex::try_quiesce(net::NodeId v, const util::DynamicBitset& received,
                                    SegmentId from) {
  View& w = views_[v];
  if (!w.built || w.work_words == 0) return false;
  // One word-level scan over the whole remaining supplied range — not just
  // the candidate window [from, to]: a missing ∧ supplied id beyond the
  // request horizon would become a candidate as playback advances with no
  // further delta, so it must keep the view awake.
  const auto start = static_cast<std::size_t>(std::max<SegmentId>(from, 0));
  const std::size_t pos = util::DynamicBitset::first_set_and_clear_offset(
      w.supplied, w.window_base, received, start);
  if (pos < w.supplied_end()) return false;
  w.work_mask.reset_all();
  w.work_words = 0;
  sync_work_lane(v, w);
  return true;
}

void AvailabilityIndex::apply_boundary(net::NodeId view, int boundary) {
  View& w = views_[view];
  if (!w.built) return;
  w.boundary_max = std::max(w.boundary_max, boundary);
}

void AvailabilityIndex::on_boundary(const net::Graph& graph, net::NodeId owner, int boundary) {
  for (const net::NodeId nb : graph.neighbors(owner)) {
    View& w = views_[nb];
    if (!w.built) continue;
    w.boundary_max = std::max(w.boundary_max, boundary);
    ++updates_;
  }
}

void AvailabilityIndex::sync_window(const std::vector<PeerNode>& peers, net::NodeId v,
                                    SegmentId from) {
  View& w = views_[v];
  GS_CHECK(w.built);
  const std::size_t new_base = align_down(from <= 0 ? 0 : static_cast<std::size_t>(from));
  if (new_base <= w.window_base) return;  // the anchor is monotone
  const std::size_t shift = new_base - w.window_base;
  const std::size_t old_end = w.window_base + window_span_;
  if (shift >= window_span_) {
    std::fill(w.supplier_count.begin(), w.supplier_count.end(), 0);
    w.supplied.reset_all();
  } else {
    std::copy(w.supplier_count.begin() + static_cast<std::ptrdiff_t>(shift),
              w.supplier_count.end(), w.supplier_count.begin());
    std::fill(w.supplier_count.end() - static_cast<std::ptrdiff_t>(shift),
              w.supplier_count.end(), 0);
    w.supplied.shift_down(shift);
  }
  w.window_base = new_base;
  // Reconstruct the newly covered top range exactly from the current
  // buffers: gains for these ids were dropped while they sat beyond the
  // window, and every such segment still present is in some neighbour's
  // presence set right now (a gain followed by an in-batch eviction
  // cancels, matching the dropped pair).
  const std::size_t recon_lo = std::max(old_end, new_base);
  for (const net::NodeId nb : w.alive_neighbors) {
    add_presence(w, peers[nb].buffer.presence(), recon_lo);
  }
  // The slide moved every slot; the window is a handful of words, so a
  // full work recount is cheaper than replaying the shifts.
  recompute_work(v, w, peers[v].received);
  ++updates_;
}

void AvailabilityIndex::add_presence(View& w, const util::DynamicBitset& presence,
                                     std::size_t from) {
  const std::size_t end = std::min(w.supplied_end(), presence.size());
  for (std::size_t pos = presence.find_first(from); pos < end;
       pos = presence.find_first(pos + 1)) {
    const std::size_t slot = pos - w.window_base;
    if (w.supplier_count[slot]++ == 0) w.supplied.set(slot);
  }
}

void AvailabilityIndex::add_supplier(View& w, const PeerNode& neighbor) {
  add_presence(w, neighbor.buffer.presence(), w.window_base);
  w.head = std::max(w.head, neighbor.buffer.max_id());
  w.boundary_max = std::max(w.boundary_max, neighbor.known_boundary());
}

void AvailabilityIndex::remove_supplier(View& w, const PeerNode& neighbor) {
  const util::DynamicBitset& presence = neighbor.buffer.presence();
  const std::size_t end = std::min(w.supplied_end(), presence.size());
  for (std::size_t pos = presence.find_first(w.window_base); pos < end;
       pos = presence.find_first(pos + 1)) {
    const std::size_t slot = pos - w.window_base;
    GS_CHECK_GT(w.supplier_count[slot], 0u);
    if (--w.supplier_count[slot] == 0) w.supplied.reset(slot);
  }
}

void AvailabilityIndex::recompute_head(View& w, const std::vector<PeerNode>& peers) {
  w.head = kNoSegment;
  for (const net::NodeId nb : w.alive_neighbors) {
    w.head = std::max(w.head, peers[nb].buffer.max_id());
  }
}

void AvailabilityIndex::recompute_boundary(View& w, const std::vector<PeerNode>& peers) {
  w.boundary_max = -1;
  for (const net::NodeId nb : w.alive_neighbors) {
    w.boundary_max = std::max(w.boundary_max, peers[nb].known_boundary());
  }
}

void AvailabilityIndex::add_peer(const net::Graph& graph, const std::vector<PeerNode>& peers,
                                 net::NodeId v) {
  if (views_.size() < peers.size()) views_.resize(peers.size());
  build_view(graph, peers, v);
  // Register the (empty-buffered, boundary-less) joiner with its
  // neighbours: it affects only their alive lists today, and the gain/evict
  // events keep it current from here on.
  for (const net::NodeId nb : graph.neighbors(v)) {
    View& w = views_[nb];
    if (!w.built) continue;
    w.alive_neighbors.insert(
        std::lower_bound(w.alive_neighbors.begin(), w.alive_neighbors.end(), v), v);
    ++updates_;
  }
}

void AvailabilityIndex::remove_peer(const net::Graph& graph, const std::vector<PeerNode>& peers,
                                    net::NodeId v) {
  const PeerNode& leaver = peers[v];
  for (const net::NodeId nb : graph.neighbors(v)) {
    View& w = views_[nb];
    if (!w.built) continue;
    const auto it = std::lower_bound(w.alive_neighbors.begin(), w.alive_neighbors.end(), v);
    GS_CHECK(it != w.alive_neighbors.end() && *it == v);
    w.alive_neighbors.erase(it);
    remove_supplier(w, leaver);
    if (leaver.buffer.max_id() == w.head) recompute_head(w, peers);
    if (leaver.known_boundary() == w.boundary_max) recompute_boundary(w, peers);
    recompute_work(nb, w, peers[nb].received);
    ++updates_;
  }
  views_[v] = View{};
  // A departed peer never plans again; park its gate lane closed.
  pool_->has_work(v) = 0;
}

void AvailabilityIndex::connect(const std::vector<PeerNode>& peers, net::NodeId u,
                                net::NodeId v) {
  for (const auto& [self, other] : {std::pair{u, v}, std::pair{v, u}}) {
    View& w = views_[self];
    if (!w.built) continue;  // sources keep no view but still gain edges
    if (!peers[other].alive()) continue;
    w.alive_neighbors.insert(
        std::lower_bound(w.alive_neighbors.begin(), w.alive_neighbors.end(), other), other);
    add_supplier(w, peers[other]);
    recompute_work(self, w, peers[self].received);
    ++updates_;
  }
}

void AvailabilityIndex::recompute_work(net::NodeId v, View& w,
                                       const util::DynamicBitset& received) {
  const std::size_t words = (w.supplied.size() + kWordBits - 1) / kWordBits;
  w.work_mask.resize(words);
  w.work_mask.reset_all();
  w.work_words = 0;
  for (std::size_t word = 0; word < words; ++word) {
    const std::uint64_t sup = w.supplied.extract_word(word * kWordBits);
    if (sup == 0) continue;
    const std::uint64_t rec = received.extract_word(w.window_base + word * kWordBits);
    if ((sup & ~rec) != 0) {
      w.work_mask.set(word);
      ++w.work_words;
    }
  }
  sync_work_lane(v, w);
}

void AvailabilityIndex::sync_work_lane(net::NodeId v, const View& w) {
  const std::uint8_t want = w.work_words != 0 ? 1 : 0;
  // Transition-only stores: during the parallel delivery merge this byte
  // belongs to the shard that owns view v, and the plan wave only reads it
  // after the phase barrier, so a plain store is race-free — but skipping
  // same-value stores keeps quiescent stretches from dirtying the lane.
  std::uint8_t& lane = pool_->has_work(v);
  if (lane != want) lane = want;
}

}  // namespace gs::stream
