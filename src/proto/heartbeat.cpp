#include "proto/heartbeat.h"

#include "common/assert.h"

namespace anu::proto {

namespace {

// Silence threshold before a peer is suspected. Must comfortably exceed
// the heartbeat interval + worst-case network delay or live peers flap.
constexpr double kSuspectAfter = 3.5;

}  // namespace

HeartbeatView::HeartbeatView(const HeartbeatConfig& config,
                             std::size_t peer_count, std::uint32_t self)
    : config_(config), self_(self), last_heard_(peer_count, 0.0) {
  ANU_REQUIRE(config.interval > 0.0);
  ANU_REQUIRE(kSuspectAfter > config.interval);
  ANU_REQUIRE(self < peer_count);
}

void HeartbeatView::heard_from(std::uint32_t peer, double now) {
  ANU_REQUIRE(peer < last_heard_.size());
  last_heard_[peer] = now;
}

bool HeartbeatView::believes_up(std::uint32_t peer, double now) const {
  ANU_REQUIRE(peer < last_heard_.size());
  if (peer == self_) return true;
  return now - last_heard_[peer] < kSuspectAfter;
}

std::uint32_t HeartbeatView::believed_delegate(double now) const {
  for (std::uint32_t peer = 0; peer < last_heard_.size(); ++peer) {
    if (believes_up(peer, now)) return peer;
  }
  return self_;  // everyone else suspected: act alone
}

std::size_t HeartbeatView::believed_up_count(double now) const {
  std::size_t n = 0;
  for (std::uint32_t peer = 0;
       peer < static_cast<std::uint32_t>(last_heard_.size()); ++peer) {
    n += believes_up(peer, now) ? 1u : 0u;
  }
  return n;
}

}  // namespace anu::proto
