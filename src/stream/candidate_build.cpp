#include "stream/candidate_build.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace gs::stream {

namespace {
constexpr std::size_t kWordBits = 64;
}  // namespace

std::uint64_t collect_candidates(const PeerNode& p, std::span<const net::NodeId> neighbors,
                                 const std::vector<PeerNode>& peers,
                                 const TransferPlane& transfers, std::size_t buffer_capacity,
                                 SegmentId boundary, double now, util::Arena* arena,
                                 CandidateScratch& scratch, std::vector<CandidateSegment>& out) {
  out.clear();
  SegmentId head = kNoSegment;
  for (const net::NodeId nb : neighbors) {
    GS_DCHECK(peers[nb].alive) << "peer " << p.id << " lists departed neighbour " << nb;
    head = std::max(head, peers[nb].buffer.max_id());
  }
  const SegmentId from = p.playback_anchor();
  if (head == kNoSegment || head < from) return 0;
  const SegmentId to =
      std::min<SegmentId>(head, from + static_cast<SegmentId>(buffer_capacity) - 1);
  const auto lo = static_cast<std::size_t>(from);
  const auto hi = static_cast<std::size_t>(to);
  const std::size_t base = lo - lo % kWordBits;
  const std::size_t word_count = hi / kWordBits - lo / kWordBits + 1;

  // Held by some neighbour, not received, inside [from, to].
  std::vector<std::uint64_t>& words = scratch.words;
  words.assign(word_count, 0);
  for (const net::NodeId nb : neighbors) {
    const util::DynamicBitset& presence = peers[nb].buffer.presence();
    for (std::size_t w = 0; w < word_count; ++w) {
      words[w] |= presence.extract_word(base + w * kWordBits);
    }
  }
  for (std::size_t w = 0; w < word_count; ++w) {
    words[w] &= ~p.received.extract_word(base + w * kWordBits);
  }
  words.front() &= ~std::uint64_t{0} << (lo % kWordBits);
  words.back() &= ~std::uint64_t{0} >> (kWordBits - 1 - hi % kWordBits);
  if (std::all_of(words.begin(), words.end(), [](std::uint64_t w) { return w == 0; })) return 0;
  // A request still in flight is not re-requested before its retry time.
  p.pending.for_each([&](SegmentId id, double retry_at) {
    if (retry_at <= now || id < from || id > to) return;
    const std::size_t off = static_cast<std::size_t>(id) - base;
    words[off / kWordBits] &= ~(std::uint64_t{1} << (off % kWordBits));
  });

  std::vector<std::uint32_t>& first = scratch.first;
  first.resize(word_count);
  std::uint32_t total = 0;
  for (std::size_t w = 0; w < word_count; ++w) {
    first[w] = total;
    total += static_cast<std::uint32_t>(std::popcount(words[w]));
  }
  if (total == 0) return 0;
  // Index of the candidate at bit `bit` of word w.
  const auto index_of = [&](std::size_t w, int bit) {
    return first[w] +
           static_cast<std::uint32_t>(std::popcount(words[w] & ((std::uint64_t{1} << bit) - 1)));
  };

  std::vector<std::uint32_t>& suppliers = scratch.suppliers;
  suppliers.assign(total, 0);
  for (const net::NodeId nb : neighbors) {
    const util::DynamicBitset& presence = peers[nb].buffer.presence();
    for (std::size_t w = 0; w < word_count; ++w) {
      for (std::uint64_t m = presence.extract_word(base + w * kWordBits) & words[w]; m != 0;
           m &= m - 1) {
        ++suppliers[index_of(w, std::countr_zero(m))];
      }
    }
  }

  const util::ArenaAllocator<SupplierView> alloc(arena);
  for (std::size_t w = 0; w < word_count; ++w) {
    for (std::uint64_t m = words[w]; m != 0; m &= m - 1) {
      CandidateSegment c(alloc);
      c.id = static_cast<SegmentId>(base + w * kWordBits +
                                    static_cast<std::size_t>(std::countr_zero(m)));
      c.epoch = (boundary != kNoSegment && c.id > boundary) ? StreamEpoch::kNew : StreamEpoch::kOld;
      c.suppliers.reserve(suppliers[out.size()]);
      out.push_back(std::move(c));
    }
  }

  for (const net::NodeId nb : neighbors) {
    const PeerNode& n = peers[nb];
    const util::DynamicBitset& presence = n.buffer.presence();
    // Hoisted on the neighbour's first supplied candidate: both are
    // invariant across the plan (rates only change in churn/setup;
    // queue_delay reads the transfer plane no commit touches while plans
    // are in flight).
    double send_rate = 0.0;
    double queue_delay = 0.0;
    bool hoisted = false;
    for (std::size_t w = 0; w < word_count; ++w) {
      std::uint64_t m = presence.extract_word(base + w * kWordBits) & words[w];
      if (m != 0 && !hoisted) {
        send_rate = n.outbound_rate;
        // The paper's R_ij is a *measured* per-link receiving rate, which
        // in a real system reflects the link's current load.  Expose the
        // backlog as the initial queueing estimate so requesters spread
        // load instead of herding onto the nominally fastest supplier.
        queue_delay = transfers.queue_delay(p.id, nb, now);
        hoisted = true;
      }
      for (; m != 0; m &= m - 1) {
        CandidateSegment& c = out[index_of(w, std::countr_zero(m))];
        SupplierView s;
        s.node = nb;
        s.send_rate = send_rate;
        s.buffer_position = n.buffer.position_from_tail(c.id);
        s.queue_delay = queue_delay;
        c.suppliers.push_back(s);
      }
    }
  }
  return static_cast<std::uint64_t>(total) * neighbors.size();
}

}  // namespace gs::stream
