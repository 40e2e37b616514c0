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
// every supplier list appends in neighbour order.  All lists share one
// store: a counting pass of the same shape sizes each list, its prefix sums
// place list i at [offset_i, offset_i + count_i), so the store is resized
// once and the fill writes each supplier straight into its slot.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/graph.hpp"
#include "stream/peer_node.hpp"
#include "stream/scheduler.hpp"
#include "stream/transfer_plane.hpp"

namespace gs::stream {

/// Scratch of collect_candidates.  Its vectors keep their capacity, so a
/// warm plan's builds allocate nothing.
struct CandidateScratch {
  /// Candidate bits: word w covers ids [base + 64 w, base + 64 w + 64),
  /// base = the anchor rounded down to a multiple of 64.
  std::vector<std::uint64_t> words;
  /// first[w] = candidates in words before w (the index of word w's first).
  std::vector<std::uint32_t> first;
  /// Per candidate, in candidate order: its supplier count, then its
  /// list's offset in the store, then the fill cursor, which ends at the
  /// list's end.
  std::vector<std::uint32_t> fill;
};

/// Replaces `out` with `p`'s candidates in ascending id order, each with its
/// suppliers in `neighbors` order (which must all be alive).  An id past
/// `boundary` (kNoSegment = no split) is a new-stream candidate.  The
/// supplier lists are consecutive slices of `suppliers`, which the build
/// replaces: candidate i's span starts where candidate i - 1's ends, and
/// the last ends at suppliers.size().  The spans stay valid until the store
/// is next written or resized.  Returns the availability probes the build
/// stands for: one per (candidate, neighbour) pair.
std::uint64_t collect_candidates(const PeerNode& p, std::span<const net::NodeId> neighbors,
                                 const std::vector<PeerNode>& peers,
                                 const TransferPlane& transfers, std::size_t buffer_capacity,
                                 SegmentId boundary, double now,
                                 std::vector<SupplierView>& suppliers, CandidateScratch& scratch,
                                 std::vector<CandidateSegment>& out);

}  // namespace gs::stream
