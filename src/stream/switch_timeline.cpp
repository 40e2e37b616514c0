#include "stream/switch_timeline.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gs::stream {

void SwitchTimeline::set_sources(std::size_t node_count, std::vector<net::NodeId> sources,
                                 std::vector<double> switch_times) {
  GS_CHECK_GE(sources.size(), 1u);
  GS_CHECK_EQ(switch_times.size(), sources.size() - 1);
  for (std::size_t i = 1; i < switch_times.size(); ++i) {
    GS_CHECK_LT(switch_times[i - 1], switch_times[i]);
  }
  sessions_.clear();
  for (net::NodeId src : sources) {
    GS_CHECK_LT(src, node_count);
    Session session;
    session.source = src;
    sessions_.push_back(session);
  }
  switch_times_ = std::move(switch_times);
  metrics_.assign(switch_times_.size(), SwitchMetrics{});
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    metrics_[i].switch_index = static_cast<int>(i);
    metrics_[i].switch_time = switch_times_[i];
  }
}

Session& SwitchTimeline::session(std::size_t k) {
  GS_CHECK_LT(k, sessions_.size());
  return sessions_[k];
}

const Session& SwitchTimeline::session(std::size_t k) const {
  GS_CHECK_LT(k, sessions_.size());
  return sessions_[k];
}

SwitchMetrics& SwitchTimeline::metrics(int k) {
  GS_CHECK_GE(k, 0);
  GS_CHECK_LT(static_cast<std::size_t>(k), metrics_.size());
  return metrics_[static_cast<std::size_t>(k)];
}

SegmentId SwitchTimeline::append_segment(std::size_t k) {
  Session& s = session(k);
  if (!s.started()) s.first = next_id_;
  return next_id_++;
}

SessionIndex SwitchTimeline::session_of(SegmentId id) const {
  // Sessions end in order, each on a strictly larger id (begin_switch
  // requires a started session), so the ranges [first, last] tile the ids.
  std::size_t k = 0;
  while (k + 1 < sessions_.size() && sessions_[k].ended() && id > sessions_[k].last) ++k;
  return static_cast<SessionIndex>(k);
}

void SwitchTimeline::begin_switch(int k, double now, SegmentId last_of_old) {
  current_switch_ = k;
  Session& old = session(static_cast<std::size_t>(k));
  GS_CHECK(old.started());
  old.last = last_of_old;
  metrics(k).switch_time = now;
}

int SwitchTimeline::switch_ending_at(SegmentId id) const {
  for (int k = 0; k <= current_switch_; ++k) {
    if (sessions_[static_cast<std::size_t>(k)].last == id) return k;
  }
  return -1;
}

std::size_t SwitchTimeline::required_prefix(int k, std::size_t q_startup) const {
  const Session& next = session(static_cast<std::size_t>(k) + 1);
  if (next.ended()) {
    return std::min<std::size_t>(q_startup,
                                 static_cast<std::size_t>(next.last - next.first + 1));
  }
  return q_startup;
}

void SwitchTimeline::init_switch_counters(PeerNode& p, int k, double now,
                                          std::size_t q_startup) const {
  const Session& old = session(static_cast<std::size_t>(k));
  GS_CHECK(old.ended());
  // A still-armed gate from the previous switch becomes moot once an even
  // newer session exists; release it so the new switch can gate at its own
  // boundary.
  if (p.gate_armed && p.playback.gate() != kNoSegment) {
    p.playback.release_gate(now);
  }
  p.active_switch = k;
  p.sw_lo = std::max(old.first, p.start_id);
  p.q1_missing = static_cast<std::uint32_t>(p.count_missing(p.sw_lo, old.last));
  p.q0_at_switch = p.q1_missing;
  const SegmentId begin = old.last + 1;
  const auto prefix = static_cast<SegmentId>(required_prefix(k, q_startup));
  p.q2_missing = static_cast<std::uint32_t>(p.count_missing(begin, begin + prefix - 1));
  p.sw_finished = false;
  p.sw_prepared = false;
  p.gate_armed = false;
}

void SwitchTimeline::censor_stale(const PeerNode& p, int new_switch) {
  if (!p.tracked || p.active_switch < 0 || p.active_switch >= new_switch) return;
  if (!p.sw_finished) ++metrics(p.active_switch).censored_finish;
  if (!p.sw_prepared) ++metrics(p.active_switch).censored_prepare;
}

bool SwitchTimeline::switch_closed(int k) const {
  const SwitchMetrics& m = metrics_[static_cast<std::size_t>(k)];
  return m.finished_s1 + m.censored_finish >= m.tracked &&
         m.prepared_s2 + m.censored_prepare >= m.tracked;
}

bool SwitchTimeline::experiment_complete() const {
  if (metrics_.empty()) return false;
  const int last = static_cast<int>(metrics_.size()) - 1;
  return current_switch_ == last && switch_closed(last);
}

void SwitchTimeline::sample_tracks(double now, const std::vector<PeerNode>& peers,
                                   std::size_t q_startup) {
  if (current_switch_ < 0) return;
  const int k = current_switch_;
  if (switch_closed(k)) return;  // switch complete; the tracks are closed
  SwitchMetrics& m = metrics(k);
  TrackPoint point;
  point.time = now - m.switch_time;
  double undelivered = 0.0;
  double delivered = 0.0;
  std::size_t counted = 0;
  const double prefix = static_cast<double>(required_prefix(k, q_startup));
  for (const PeerNode& p : peers) {
    if (!p.tracked || p.active_switch != k || !p.alive) continue;
    ++counted;
    if (p.q0_at_switch > 0) {
      undelivered += static_cast<double>(p.q1_missing) / static_cast<double>(p.q0_at_switch);
    }
    delivered += (prefix - static_cast<double>(p.q2_missing)) / prefix;
  }
  if (counted > 0) {
    point.undelivered_ratio_s1 = undelivered / static_cast<double>(counted);
    point.delivered_ratio_s2 = delivered / static_cast<double>(counted);
  }
  point.live_tracked = counted;
  m.track.push_back(point);
}

void SwitchTimeline::censor_unfinished(const std::vector<PeerNode>& peers) {
  for (const PeerNode& p : peers) {
    if (!p.tracked || p.active_switch < 0) continue;
    SwitchMetrics& m = metrics(p.active_switch);
    if (!p.sw_finished) ++m.censored_finish;
    if (!p.sw_prepared) ++m.censored_prepare;
  }
}

SwitchTimeline::OverheadSnapshot SwitchTimeline::take_snapshot(
    const gossip::OverheadAccountant& overhead) {
  OverheadSnapshot snap;
  snap.buffer_map_bits = overhead.buffer_map_bits();
  snap.request_bits = overhead.request_bits();
  snap.data_bits = overhead.data_bits();
  snap.data_segments = overhead.data_segments();
  return snap;
}

void SwitchTimeline::capture_overhead(const gossip::OverheadAccountant& overhead) {
  overhead_snapshots_.push_back(take_snapshot(overhead));
}

void SwitchTimeline::finalize_overhead(const gossip::OverheadAccountant& overhead) {
  overhead_snapshots_.push_back(take_snapshot(overhead));
  for (std::size_t k = 0; k + 1 < overhead_snapshots_.size(); ++k) {
    const OverheadSnapshot& a = overhead_snapshots_[k];
    const OverheadSnapshot& b = overhead_snapshots_[k + 1];
    SwitchMetrics& m = metrics_[k];
    const auto data = static_cast<double>(b.data_bits - a.data_bits);
    if (data > 0) {
      m.overhead_ratio = static_cast<double>(b.buffer_map_bits - a.buffer_map_bits) / data;
      m.control_ratio = static_cast<double>((b.buffer_map_bits - a.buffer_map_bits) +
                                            (b.request_bits - a.request_bits)) /
                        data;
    }
    m.data_segments = b.data_segments - a.data_segments;
  }
}

}  // namespace gs::stream
