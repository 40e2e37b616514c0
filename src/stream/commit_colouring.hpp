// Supplier-contention colouring for the parallel commit wave.
//
// Members of one sweep wave conflict when their contention sets — the
// neighbour sets their plans' queue-delay reads and capacity commits cover —
// intersect.  Members with disjoint sets commute: their plans and commits
// write disjoint capacity state and read nothing the other writes, so they
// can run on concurrent lanes.  The wave therefore colours its members
// before anything plans and plans and commits one colour class at a time.
//
// The colouring must do more than be proper: classes execute in colour
// order, so whenever members i < j conflict, j's class must come *after*
// i's, or j would plan before a conflicting predecessor committed and read a
// backlog the sequential engine never shows it.  Plain smallest-free-colour
// greedy violates this (conflicts (0,1) and (1,2) colour as 0,1,0 and class
// 0 runs member 2 before member 1); the *layered* greedy rule
//
//   colour(j) = 1 + max over s in set(j) of last_colour[s]   (-1 when fresh)
//
// guarantees it by construction: every earlier conflicting member already
// stamped a shared supplier, so colour(i) < colour(j).  Properness follows
// for free — two same-colour members sharing a supplier is impossible, the
// later one would have seen the earlier one's stamp.
//
// Per-supplier stamps are epoch-tagged so a wave costs O(sum of set sizes),
// with no O(node_count) clearing; all scratch is reused across waves, so a
// warm colouring allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/graph.hpp"

namespace gs::stream {

struct CommitColouring {
  /// colour[slot] for every wave slot passed to colour_wave; slots with an
  /// empty contention set get colour 0 (they read no backlog and commit no
  /// capacity, so any class — the first — is safe).
  std::vector<std::uint32_t> colour;
  /// One past the highest colour assigned (the class count).
  std::uint32_t classes = 0;

  /// Colours wave slots [0, count).  `set(slot)` returns the slot's
  /// contention set (its neighbour list, ids < node_count), empty for slots
  /// that will not plan.
  template <typename SetFn>
  void colour_wave(std::size_t count, std::size_t node_count, SetFn&& set) {
    if (last_colour_.size() < node_count) {
      last_colour_.resize(node_count, 0);
      epoch_.resize(node_count, 0);
    }
    ++cur_epoch_;
    if (cur_epoch_ == 0) {  // epoch wrap: invalidate every stale tag
      std::fill(epoch_.begin(), epoch_.end(), 0);
      cur_epoch_ = 1;
    }
    colour.assign(count, 0);
    classes = count > 0 ? 1 : 0;
    for (std::size_t j = 0; j < count; ++j) {
      const std::span<const net::NodeId> contended = set(j);
      std::uint32_t c = 0;
      for (const net::NodeId s : contended) {
        if (epoch_[s] == cur_epoch_ && last_colour_[s] + 1 > c) c = last_colour_[s] + 1;
      }
      colour[j] = c;
      if (c + 1 > classes) classes = c + 1;
      for (const net::NodeId s : contended) {
        epoch_[s] = cur_epoch_;
        last_colour_[s] = c;
      }
    }
  }

 private:
  std::vector<std::uint32_t> last_colour_;  ///< colour of s's latest toucher
  std::vector<std::uint32_t> epoch_;        ///< tag validating last_colour_[s]
  std::uint32_t cur_epoch_ = 0;
};

}  // namespace gs::stream
