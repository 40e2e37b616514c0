#include "stream/cdn_assist.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gs::stream {

CdnAssistPlane::CdnAssistPlane(const CdnAssistConfig& config, EngineStats& stats)
    : config_(config),
      stats_(stats),
      capacity_(make_capacity_model(config.capacity, config.token_bucket_burst)) {
  GS_CHECK_GT(config_.rate, 0.0);
  GS_CHECK_GE(config_.latency_ms, 0.0);
  GS_CHECK_GE(config_.resume_lead_s, 0.0);
  GS_CHECK_GE(config_.pause_lead_s, config_.resume_lead_s);
  capacity_->ensure_nodes(1);  // the CDN's own supplier slot
}

void CdnAssistPlane::ensure_nodes(std::size_t count) {
  if (peers_.size() < count) peers_.resize(count);
  // kPerLink keys backlog state by requester, so the model needs a slot per
  // peer; the supplier-keyed models only need kCdnNode (covered above).
  capacity_->ensure_nodes(count);
}

CdnAssistPlane::State CdnAssistPlane::state(net::NodeId peer) const {
  return peer < peers_.size() ? peers_[peer].state : State::kOff;
}

bool CdnAssistPlane::paused(net::NodeId peer) const {
  return peer < peers_.size() && peers_[peer].paused;
}

double CdnAssistPlane::mean_assist_s() const noexcept {
  return assist_time_count_ == 0 ? 0.0
                                 : assist_time_sum_ / static_cast<double>(assist_time_count_);
}

void CdnAssistPlane::exit_assist(PeerAssist& assist, double now) {
  // A burst that never reached HANDOFF still contributes its assist time
  // (the peer prepared, left, or a newer switch superseded the assist);
  // HANDOFF already recorded its duration at the transition.
  if (assist.state == State::kBurst) {
    assist_time_sum_ += now - assist.enroll_time;
    ++assist_time_count_;
  }
  assist.state = State::kOff;
  assist.paused = false;
  assist.switch_index = -1;
}

bool CdnAssistPlane::control(net::NodeId peer, const PeerView& view, double now) {
  GS_CHECK_LT(peer, peers_.size());
  PeerAssist& assist = peers_[peer];
  if (view.switch_index < 0) {
    if (assist.state != State::kOff) exit_assist(assist, now);
    return false;
  }
  if (assist.state == State::kOff || assist.switch_index != view.switch_index) {
    // Enroll (a newer switch supersedes any assist still running).
    if (assist.state != State::kOff) exit_assist(assist, now);
    assist.state = State::kBurst;
    assist.paused = false;
    assist.switch_index = view.switch_index;
    assist.enroll_time = now;
    ++stats_.cdn_assisted_switches;
  }
  if (assist.state == State::kBurst && view.suppliers_cover) {
    assist.state = State::kHandoff;
    assist.paused = false;
    ++stats_.cdn_handoffs;
    assist_time_sum_ += now - assist.enroll_time;
    ++assist_time_count_;
  } else if (assist.state == State::kHandoff && !view.suppliers_cover &&
             view.rest_play_s < config_.resume_lead_s) {
    // Supplier churn broke the coverage and playback is about to underrun:
    // back to the burst (no re-enrollment — same assist episode).
    assist.state = State::kBurst;
  }
  if (assist.state != State::kBurst) return false;
  if (!assist.paused && view.rest_play_s >= config_.pause_lead_s) {
    assist.paused = true;
    ++stats_.cdn_pauses;
  } else if (assist.paused && view.rest_play_s < config_.resume_lead_s) {
    assist.paused = false;
    ++stats_.cdn_resumes;
  }
  return !assist.paused;
}

bool CdnAssistPlane::request(net::NodeId peer, double now, double& deliver_at) {
  const double start = std::max(now, capacity_->backlog_end(peer, kCdnNode));
  if (start - now > config_.accept_horizon) {
    ++stats_.cdn_requests_rejected;
    return false;
  }
  const double tx = 1.0 / config_.rate;
  capacity_->commit(peer, kCdnNode, start, start + tx);
  // Fixed latency, deliberately jitter-free: the patch path draws from no
  // rng, so enabling the assist never perturbs a peer's gossip rng stream.
  deliver_at = start + tx + config_.latency_ms / 1000.0;
  return true;
}

}  // namespace gs::stream
