// The availability plane: per-peer neighbour-availability views maintained
// by deltas instead of per-tick rescans.
//
// Each scheduling period a peer needs "what is missing here and held by an
// alive neighbour", plus the newest id and switch boundary its neighbours
// know of.  Re-deriving that per tick costs O(degree x buffer_capacity) per
// peer; this index inverts the dataflow instead: every event that changes
// what a neighbourhood can supply (a delivery, a FIFO eviction, a join, a
// leave, a repair edge, a boundary learned) pushes a delta into the
// affected peers' views, and the tick just reads them.
//
// Per peer the view keeps
//   - the alive neighbour list in graph (sorted-id) order,
//   - a per-segment supplier count plus the derived `supplied` bitset, so
//     the candidate loop can jump straight to missing-and-supplied ids with
//     DynamicBitset::first_set_and_clear_offset,
//   - the cached neighbour head (max buffer id any neighbour holds),
//   - the cached boundary max (newest switch any neighbour knows of),
//   - the plan gate's work summary (see View::work_words).
//
// Supplier counts live in a sliding window of buffer_capacity + 192 ids
// anchored at the owner's playback cursor (window_base, always a
// multiple of 64 so the supplied bitset stays word-aligned with the owner's
// absolute received set).  Deltas outside the window are dropped;
// sync_window slides the base forward each tick and *exactly* reconstructs
// the newly covered top range from the neighbours' buffers, so in-window
// counts always equal a from-scratch count over the alive neighbours
// (stream_availability_index_test checks that property; the golden digests
// in stream_determinism_test pin the end-to-end behaviour), while per-view
// memory stays O(buffer_capacity) for 10^5+-peer runs.
//
// State is strictly per view, and the delta entry points are split into
// apply_gain / apply_evict / recompute_head_for so the sharded engine can
// drain delivery deltas in parallel: each lane applies the deltas of the
// views its shard owns (disjoint state), defers head recomputation (which
// reads other peers' buffers) behind the wave barrier, and the end-of-batch
// state equals the sequential application exactly (supplier counts commute
// per (view, owner) stream; the cached head is exact at every batch end —
// max-monotone gains plus recompute-on-dirty cover every eviction case).
#pragma once

#include <cstdint>
#include <vector>

#include "net/graph.hpp"
#include "stream/peer_node.hpp"
#include "util/bitset.hpp"

namespace gs::stream {

class AvailabilityIndex {
 public:
  /// One peer's merged view of its neighbourhood.
  struct View {
    /// Views exist for live non-source peers only (sources never tick and
    /// dead peers never come back; their ids are not reused).
    bool built = false;
    /// Alive neighbours in ascending id order — exactly the order and set
    /// graph.neighbors() yields once dead peers are skipped.
    std::vector<net::NodeId> alive_neighbors;
    /// supplier_count[slot] = alive neighbours currently holding segment
    /// window_base + slot.
    std::vector<std::uint16_t> supplier_count;
    /// Bit `slot` set iff supplier_count[slot] > 0.
    util::DynamicBitset supplied;
    /// Absolute id of supplier_count[0] / supplied bit 0; multiple of 64.
    std::size_t window_base = 0;
    /// max over alive neighbours of buffer.max_id(); kNoSegment when none.
    /// Maintained across the whole stream regardless of the window.
    SegmentId head = kNoSegment;
    /// max over alive neighbours of known_boundary; -1 when none.
    int boundary_max = -1;
    /// Plan-gate work summary: a *conservative* word-level cover of
    /// (supplied & ~owner.received) — every word with a missing ∧ supplied
    /// segment is marked, but a marked word may have gone quiet (the owner
    /// received the segments, or suppliers evicted them).  Zero work_words
    /// therefore *proves* the owner has no schedulable work and tick_plan
    /// can skip the candidate build outright; nonzero just means "build and
    /// see".  Kept conservative on purpose: deciding exactly at delta time
    /// would read the owner's received set — a cold random load per delta
    /// at 10^6 peers that costs more than the empty builds it saves.  The
    /// summary is exact right after the bulk recomputes (build, window
    /// slide, repair edge, join) and collapses back to zero via try_quiesce
    /// when an empty build proves quiescence.
    std::uint32_t work_words = 0;
    /// Bit `w` set iff word `w` of `supplied` contributes to work_words.
    util::DynamicBitset work_mask;

    /// One past the last absolute id the supplied bitset covers.
    [[nodiscard]] std::size_t supplied_end() const noexcept {
      return window_base + supplied.size();
    }
  };

  /// Builds every live non-source peer's view from the current buffers,
  /// keyed on a window of buffer_capacity + 192 ids (rounded up to whole
  /// words), and mirrors each view's work summary into `pool.has_work(v)`
  /// so the engine's plan gate can test quiescence with one byte load (the
  /// pool must outlive the index).  Call once, after setup/warm-start
  /// filled the buffers and before the simulation loop delivers anything.
  void build(const net::Graph& graph, const std::vector<PeerNode>& peers,
             std::size_t buffer_capacity, PeerPool& pool);

  /// `owner`'s buffer gained `id` (delivery or local generation).
  void on_gain(const net::Graph& graph, net::NodeId owner, SegmentId id);
  /// `owner`'s buffer evicted `victim`.  Call after the eviction, so head
  /// recomputation sees the post-eviction buffers.
  void on_evict(const net::Graph& graph, const std::vector<PeerNode>& peers, net::NodeId owner,
                SegmentId victim);
  /// `owner` learned switch boundaries up to `boundary`.
  void on_boundary(const net::Graph& graph, net::NodeId owner, int boundary);

  /// The owner's candidate build came back empty: clears `v`'s work
  /// summary (and the pool lane) iff the supplied ∧ ¬received scan from
  /// `from` proves there is no schedulable work now or later without a
  /// fresh delta — a pending-deferred id is still missing ∧ supplied, so
  /// the scan seeing nothing also rules out retry-timer wakeups, and ids
  /// behind `from` are dead (the playback anchor never moves backwards).
  /// Returns true when it cleared.
  bool try_quiesce(net::NodeId v, const util::DynamicBitset& received, SegmentId from);

  // --- journaled delta application (the engine's parallel delivery wave) ---
  //
  // apply_gain/apply_evict are the per-view halves of on_gain/on_evict:
  // they touch only views_[view] (plus the immutable window configuration),
  // so distinct views can be updated from distinct threads.  apply_evict
  // never recomputes the head — it reports whether the cached head was
  // invalidated and the caller recomputes after every buffer write of the
  // batch has landed (recompute_head_for), which yields exactly the head a
  // sequential application ends at.

  /// Applies one gain delta to `view`'s state; no-op for unbuilt views.
  void apply_gain(net::NodeId view, SegmentId id);
  /// Applies one eviction delta to `view`'s state.  Returns true when the
  /// eviction removed the cached head (caller must recompute_head_for once
  /// the batch's buffer writes are final); false otherwise.
  [[nodiscard]] bool apply_evict(net::NodeId view, SegmentId victim);
  /// Applies one journalled boundary delta to `view`: boundary_max rises to
  /// at least `boundary`.  Max-monotone, so boundary deltas commute with
  /// every other delta kind — they can ride the parallel merge wave in any
  /// cross-owner interleaving and still land on the sequential end state.
  void apply_boundary(net::NodeId view, int boundary);
  /// Recomputes `view`'s cached head from its alive neighbours' buffers.
  void recompute_head_for(const std::vector<PeerNode>& peers, net::NodeId view);
  /// Folds externally counted delta applications into updates_applied().
  void add_updates(std::uint64_t n) noexcept { updates_ += n; }

  /// Slides `v`'s window so it stays anchored at the owner's current
  /// playback position `from`.  Counts for the newly covered top range are
  /// reconstructed exactly from the alive neighbours' buffers, recovering
  /// any deltas dropped while those ids were beyond the window.  Call from
  /// the tick pre phase, after playback advanced.
  void sync_window(const std::vector<PeerNode>& peers, net::NodeId v, SegmentId from);

  /// A fresh joiner `v`, already wired into the graph and present in
  /// `peers`: builds its view and registers it with its neighbours.
  void add_peer(const net::Graph& graph, const std::vector<PeerNode>& peers, net::NodeId v);
  /// `v` is leaving: unregisters it from every neighbour's view and drops
  /// its own.  Call while the graph still has v's edges (before the
  /// membership protocol isolates it).
  void remove_peer(const net::Graph& graph, const std::vector<PeerNode>& peers, net::NodeId v);
  /// A repair edge appeared between existing peers `u` and `v` (either side
  /// may be a source, whose own view stays unbuilt).
  void connect(const std::vector<PeerNode>& peers, net::NodeId u, net::NodeId v);

  [[nodiscard]] const View& view(net::NodeId v) const;

  /// Delta events applied since build() (diagnostics).
  [[nodiscard]] std::uint64_t updates_applied() const noexcept { return updates_; }

 private:
  void build_view(const net::Graph& graph, const std::vector<PeerNode>& peers, net::NodeId v);
  /// Maps `id` to its count/bitset slot in `w`; false (nothing touched)
  /// when the id lies outside the window.
  bool track_slot(const View& w, SegmentId id, std::size_t& slot) const;
  /// Counts every id `presence` holds in [from, w.supplied_end()).
  static void add_presence(View& w, const util::DynamicBitset& presence, std::size_t from);
  static void add_supplier(View& w, const PeerNode& neighbor);
  static void remove_supplier(View& w, const PeerNode& neighbor);
  static void recompute_head(View& w, const std::vector<PeerNode>& peers);
  static void recompute_boundary(View& w, const std::vector<PeerNode>& peers);
  /// Full from-scratch work summary for `w` (bulk ops: build, window
  /// slide, repair edge, neighbour removal).
  void recompute_work(net::NodeId v, View& w, const util::DynamicBitset& received);
  /// Mirrors work_words == 0 into pool_->has_work(v) (transition writes
  /// only, so quiescent stretches stay read-mostly).
  void sync_work_lane(net::NodeId v, const View& w);

  PeerPool* pool_ = nullptr;
  /// Window span in ids (a multiple of 64); set by build().
  std::size_t window_span_ = 0;
  std::vector<View> views_;
  std::uint64_t updates_ = 0;
};

}  // namespace gs::stream
