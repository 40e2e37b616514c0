// The candidate build: the segments Algorithm 1 schedules over in one
// period, read straight off the neighbours' buffer maps.
//
// A peer's candidates are the ids of its request window
// [anchor, min(head, anchor + B - 1)] — anchor = its playback position,
// head = the highest id any neighbour holds — that some neighbour holds, the
// peer has not received, and no unexpired request is pending for.  The build
// takes that set 64 ids at a time: it ORs the neighbours' presence words,
// clears the received bits and the two window edges, drops pending ids, and
// walks the surviving bits (countr_zero) into ascending candidates.
// Suppliers are then collected neighbour-major: a neighbour's presence word
// ANDed with a candidate word names exactly the candidates it supplies, so
// each neighbour's rate, queue delay and buffer are read in one burst and
// every supplier list appends in neighbour order.  A counting pass of the
// same shape runs first, so each list takes one arena allocation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/graph.hpp"
#include "stream/peer_node.hpp"
#include "stream/scheduler.hpp"
#include "stream/transfer_plane.hpp"
#include "util/arena.hpp"

namespace gs::stream {

/// Per-lane scratch of collect_candidates.  Its vectors keep their capacity,
/// so a warm lane's builds allocate nothing.
struct CandidateScratch {
  /// Candidate bits: word w covers ids [base + 64 w, base + 64 w + 64),
  /// base = the anchor rounded down to a multiple of 64.
  std::vector<std::uint64_t> words;
  /// first[w] = candidates in words before w (the index of word w's first).
  std::vector<std::uint32_t> first;
  /// Supplier count per candidate, in candidate order.
  std::vector<std::uint32_t> suppliers;
};

/// Replaces `out` with `p`'s candidates in ascending id order, each with its
/// suppliers in `neighbors` order (which must all be alive).  An id past
/// `boundary` (kNoSegment = no split) is a new-stream candidate.  Supplier
/// lists live in `arena` (null = heap).  Returns the availability probes the
/// build stands for: one per (candidate, neighbour) pair.
std::uint64_t collect_candidates(const PeerNode& p, std::span<const net::NodeId> neighbors,
                                 const std::vector<PeerNode>& peers,
                                 const TransferPlane& transfers, std::size_t buffer_capacity,
                                 SegmentId boundary, double now, util::Arena* arena,
                                 CandidateScratch& scratch, std::vector<CandidateSegment>& out);

}  // namespace gs::stream
