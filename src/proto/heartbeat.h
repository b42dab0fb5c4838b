// Heartbeat failure detector.
//
// §4's protocol presumes every node knows which servers are up — the
// delegate is "elected", failed servers' regions are reassigned. This
// detector makes that knowledge emergent: every node broadcasts a
// Heartbeat each `interval`; a peer not heard from for 3.5 s is locally
// suspected. Each node holds its own view, so views can transiently
// disagree (the classic eventually-perfect detector in a partially
// synchronous network); the protocol's version-by-round updates tolerate
// that window.
//
// One detector instance per node; the owner feeds it received heartbeats
// and its own clock.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace anu::proto {

struct HeartbeatConfig {
  /// Beacon period; must be shorter than the 3.5 s silence threshold.
  double interval = 1.0;
};

class HeartbeatView {
 public:
  HeartbeatView(const HeartbeatConfig& config, std::size_t peer_count,
                std::uint32_t self);

  /// Records a heartbeat (or any message — receipt proves liveness) from
  /// `peer` at local time `now`.
  void heard_from(std::uint32_t peer, double now);

  /// Is `peer` believed up at `now`? Self is always up.
  [[nodiscard]] bool believes_up(std::uint32_t peer, double now) const;

  /// Lowest-id peer believed up — this node's delegate candidate.
  [[nodiscard]] std::uint32_t believed_delegate(double now) const;

  [[nodiscard]] std::size_t believed_up_count(double now) const;
  [[nodiscard]] std::uint32_t self() const { return self_; }

 private:
  HeartbeatConfig config_;
  std::uint32_t self_;
  std::vector<double> last_heard_;
};

}  // namespace anu::proto
