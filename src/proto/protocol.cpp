#include "proto/protocol.h"

#include <algorithm>

#include "common/assert.h"
#include "common/log.h"
#include "core/decision.h"
#include "obs/trace_sink.h"

namespace anu::proto {

ProtocolCluster::ProtocolCluster(anu::Clock& clock, Transport& network,
                                 const ProtocolConfig& config,
                                 std::size_t server_count,
                                 LatencyModel latency_model)
    : clock_(clock),
      network_(network),
      config_(config),
      latency_model_(std::move(latency_model)),
      family_(config.hash_seed),
      retry_rng_(config.retransmit.seed),
      nodes_(server_count),
      ticker_(clock, config.tuning_interval,
              [this](SimTime now) { on_tick(now); }) {
  ANU_REQUIRE(server_count > 0);
  ANU_REQUIRE(network.node_count() == server_count);
  ANU_REQUIRE(latency_model_ != nullptr);
  ANU_REQUIRE(config.retransmit.rto > 0.0);
  ANU_REQUIRE(config.retransmit.rto_max >= config.retransmit.rto);
  ANU_REQUIRE(config.retransmit.jitter >= 0.0 &&
              config.retransmit.jitter < 1.0);
  ANU_REQUIRE(config.retransmit.max_attempts >= 1);
  // Every replica starts from the identical deterministic equal-share map.
  const core::RegionMap initial(server_count);
  for (std::uint32_t s = 0; s < server_count; ++s) {
    nodes_[s].map = initial;
    nodes_[s].round_reports.resize(server_count);
    nodes_[s].seen_seqs.resize(server_count);
    network_.attach(s, [this, s](std::uint32_t from, const Message& message) {
      on_message(s, from, message);
    });
  }
  if (config_.use_heartbeats) {
    views_.reserve(server_count);
    for (std::uint32_t s = 0; s < server_count; ++s) {
      views_.emplace_back(config_.heartbeat, server_count, s);
    }
    heartbeat_ticker_ = std::make_unique<anu::PeriodicTimer>(
        clock, config_.heartbeat.interval, [this](SimTime) {
          for (std::uint32_t s = 0; s < nodes_.size(); ++s) {
            if (nodes_[s].up) network_.broadcast(s, Heartbeat{s});
          }
        });
  }
}

void ProtocolCluster::register_file_sets(std::vector<std::string> names) {
  file_sets_ = std::move(names);
}

void ProtocolCluster::fail_server(std::uint32_t server) {
  ANU_REQUIRE(server < nodes_.size());
  ANU_REQUIRE(nodes_[server].up);
  const std::uint32_t before = delegate();
  nodes_[server].up = false;
  nodes_[server].grace_deadline.cancel();
  drop_pending(server);
  network_.set_node_up(server, false);
  // The server_fail event itself is emitted by the data-plane Cluster
  // sharing this clock; this layer records only the election outcome.
  // Oracle-membership election is instantaneous; under heartbeats each
  // node's believed delegate converges via its local detector instead.
  if (auto* t = clock_.trace()) {
    if (delegate() != before) {
      t->emit(clock_.now(), obs::EventType::kDelegateElected, delegate(),
              before);
    }
  }
}

void ProtocolCluster::recover_server(std::uint32_t server) {
  ANU_REQUIRE(server < nodes_.size());
  ANU_REQUIRE(!nodes_[server].up);
  const std::uint32_t before = delegate();
  nodes_[server].up = true;
  network_.set_node_up(server, true);
  if (auto* t = clock_.trace()) {
    if (delegate() != before) {
      t->emit(clock_.now(), obs::EventType::kDelegateElected, delegate(),
              before);
    }
  }
  // State transfer on rejoin: any up peer sends its current replica so the
  // returning node (who may immediately be re-elected delegate) does not
  // act on an arbitrarily stale map. Version monotonicity keeps this safe
  // even if the transfer races a round's broadcast.
  for (std::uint32_t peer = 0; peer < nodes_.size(); ++peer) {
    if (peer == server || !nodes_[peer].up) continue;
    RegionMapUpdate transfer;
    transfer.version = nodes_[peer].version;
    transfer.round = nodes_[peer].version;
    transfer.partitions = nodes_[peer].map.snapshot();
    send_reliable(peer, server, transfer);
    break;
  }
}

std::uint32_t ProtocolCluster::delegate() const {
  for (std::uint32_t s = 0; s < nodes_.size(); ++s) {
    if (nodes_[s].up) return s;
  }
  ANU_ENSURE(false && "whole cluster down");
  return 0;
}

std::uint32_t ProtocolCluster::believed_delegate_of(std::uint32_t self) const {
  ANU_REQUIRE(self < nodes_.size());
  if (!config_.use_heartbeats) return delegate();
  return views_[self].believed_delegate(clock_.now());
}

bool ProtocolCluster::believed_up(std::uint32_t self,
                                  std::uint32_t peer) const {
  ANU_REQUIRE(self < nodes_.size());
  ANU_REQUIRE(peer < nodes_.size());
  if (!config_.use_heartbeats) return nodes_[peer].up;
  return views_[self].believes_up(peer, clock_.now());
}

const core::RegionMap& ProtocolCluster::map_of(std::uint32_t server) const {
  ANU_REQUIRE(server < nodes_.size());
  return nodes_[server].map;
}

std::uint64_t ProtocolCluster::version_of(std::uint32_t server) const {
  ANU_REQUIRE(server < nodes_.size());
  return nodes_[server].version;
}

bool ProtocolCluster::replicas_agree() const {
  const Node* reference = nullptr;
  for (const Node& node : nodes_) {
    if (!node.up) continue;
    if (!reference) {
      reference = &node;
      continue;
    }
    if (node.version != reference->version ||
        !(node.map == reference->map)) {
      return false;
    }
  }
  return true;
}

ServerId ProtocolCluster::route_from(std::uint32_t server,
                                     std::string_view name) const {
  return core::locate(map_of(server), family_, name).server;
}

std::uint64_t ProtocolCluster::shed_notices_received(
    std::uint32_t server) const {
  ANU_REQUIRE(server < nodes_.size());
  return nodes_[server].shed_notices;
}

void ProtocolCluster::send_reliable(std::uint32_t self, std::uint32_t to,
                                    Message message) {
  Node& node = nodes_[self];
  const std::uint64_t seq = node.next_seq++;
  if (auto* report = std::get_if<LatencyReport>(&message)) {
    report->seq = seq;
  } else if (auto* update = std::get_if<RegionMapUpdate>(&message)) {
    update->seq = seq;
  } else {
    ANU_ENSURE(false && "only reports and map updates are sent reliably");
  }
  PendingSend pending;
  pending.message = message;
  pending.to = to;
  pending.attempts = 1;
  pending.rto = config_.retransmit.rto;
  node.pending.emplace(seq, std::move(pending));
  ++reliable_sent_;
  network_.send(self, to, std::move(message));
  arm_retransmit(self, seq);
}

void ProtocolCluster::arm_retransmit(std::uint32_t self, std::uint64_t seq) {
  auto it = nodes_[self].pending.find(seq);
  ANU_REQUIRE(it != nodes_[self].pending.end());
  const double timeout =
      it->second.rto *
      (1.0 + config_.retransmit.jitter * retry_rng_.next_double());
  it->second.timer = clock_.schedule_after(
      timeout, [this, self, seq] { on_retransmit_timer(self, seq); });
}

void ProtocolCluster::on_retransmit_timer(std::uint32_t self,
                                          std::uint64_t seq) {
  Node& node = nodes_[self];
  const auto it = node.pending.find(seq);
  if (it == node.pending.end() || !node.up) return;  // acked or sender died
  PendingSend& pending = it->second;
  // Give up once the receiver is believed down (its region is reclaimed by
  // membership, not by retries) or the retry budget is spent.
  if (!believed_up(self, pending.to) ||
      pending.attempts >= config_.retransmit.max_attempts) {
    ++retries_abandoned_;
    node.pending.erase(it);
    return;
  }
  ++pending.attempts;
  ++retransmits_;
  if (auto* t = clock_.trace()) {
    t->emit(clock_.now(), obs::EventType::kRetransmit, self, pending.to,
            pending.attempts, pending.rto);
  }
  network_.send(self, pending.to, pending.message);
  pending.rto = std::min(pending.rto * 2.0, config_.retransmit.rto_max);
  arm_retransmit(self, seq);
}

void ProtocolCluster::drop_pending(std::uint32_t self) {
  Node& node = nodes_[self];
  for (auto& [seq, pending] : node.pending) pending.timer.cancel();
  node.pending.clear();
}

void ProtocolCluster::on_tick(SimTime now) {
  const auto round = static_cast<std::uint64_t>(
      now / config_.tuning_interval + 0.5);
  for (std::uint32_t s = 0; s < nodes_.size(); ++s) {
    Node& node = nodes_[s];
    if (!node.up) continue;
    // Each node addresses the delegate *it* believes in; with heartbeats
    // that view is local and may transiently disagree across nodes.
    const std::uint32_t target = believed_delegate_of(s);
    LatencyReport report;
    report.server = s;
    report.round = round;
    report.report = latency_model_(s, node.map.share(ServerId(s)));
    if (s == target) {
      // The delegate's own report needs no network trip.
      delegate_collect(s, report);
    } else {
      send_reliable(s, target, report);
    }
  }
}

void ProtocolCluster::on_message(std::uint32_t self, std::uint32_t from,
                                 const Message& message) {
  Node& node = nodes_[self];
  if (!node.up) return;
  // Any received message proves the sender was alive when it sent.
  if (config_.use_heartbeats) views_[self].heard_from(from, clock_.now());
  if (const auto* ack = std::get_if<Ack>(&message)) {
    const auto it = node.pending.find(ack->seq);
    if (it != node.pending.end()) {
      it->second.timer.cancel();
      node.pending.erase(it);
      ++acks_received_;
    }
    return;
  }
  if (const std::uint64_t seq = reliable_seq(message); seq != 0) {
    // Ack first — even for duplicates, whose original ack may have been
    // lost — then suppress anything already processed so retransmit
    // echoes compose with network-injected duplication.
    network_.send(self, from, Ack{seq});
    if (!node.seen_seqs[from].insert(seq).second) {
      ++duplicates_suppressed_;
      return;
    }
  }
  if (const auto* report = std::get_if<LatencyReport>(&message)) {
    // Only the node currently acting as delegate collects reports; a
    // report addressed to a stale delegate is ignored (the sender will
    // address the right one next round).
    if (self == believed_delegate_of(self)) delegate_collect(self, *report);
  } else if (const auto* update = std::get_if<RegionMapUpdate>(&message)) {
    apply_update(self, *update);
  } else if (std::get_if<ShedNotice>(&message)) {
    ++node.shed_notices;
  } else if (std::get_if<Heartbeat>(&message)) {
    // Liveness already recorded above.
  }
}

void ProtocolCluster::delegate_collect(std::uint32_t self,
                                       const LatencyReport& report) {
  Node& node = nodes_[self];
  if (report.round < node.collecting_round) return;  // stale straggler
  if (report.round <= node.last_tuned_round) return;  // round already tuned
  if (report.round > node.collecting_round) {
    // New round begins: reset the collection window and arm the grace
    // deadline; whatever arrived by then is what the round tunes on.
    node.collecting_round = report.round;
    std::fill(node.round_reports.begin(), node.round_reports.end(),
              std::nullopt);
    node.grace_deadline.cancel();
    node.grace_deadline = clock_.schedule_after(
        config_.report_grace, [this, self] { delegate_tune(self); });
  }
  node.round_reports[report.server] = report.report;

  // All expected reports in (judged by the delegate's own membership
  // view): no need to wait out the grace period.
  bool complete = true;
  for (std::uint32_t s = 0; s < nodes_.size(); ++s) {
    if (believed_up(self, s) && !node.round_reports[s].has_value()) {
      complete = false;
      break;
    }
  }
  if (complete) {
    node.grace_deadline.cancel();
    delegate_tune(self);
  }
}

void ProtocolCluster::delegate_tune(std::uint32_t self) {
  Node& node = nodes_[self];
  if (!node.up || self != believed_delegate_of(self)) return;
  if (node.collecting_round <= node.last_tuned_round) return;
  node.last_tuned_round = node.collecting_round;

  // A server the delegate believes down gets no report — its region is
  // reclaimed this round (with heartbeats, this is how a failure's load is
  // reassigned with no oracle at all). A believed-up server whose report
  // was lost reads as idle — bounded growth, never a stall.
  std::vector<bool> up(nodes_.size());
  for (std::uint32_t s = 0; s < nodes_.size(); ++s) {
    up[s] = believed_up(self, s);
  }
  // Tune into a copy: node.map must stay the previous configuration until
  // apply_update runs, so the delegate computes its shed notices from the
  // same (previous, new) pair as every other node.
  core::RegionMap tuned = node.map;
  core::retune(tuned, up, node.round_reports, config_.tuner, clock_.trace(),
               clock_.now());
  ++published_;

  RegionMapUpdate update;
  // Version = round number: globally monotonic regardless of which node is
  // delegate. A recovered former delegate tuning from a stale replica
  // still publishes a version every node accepts (it is the newest round),
  // so the cluster cannot split-brain on rejected updates; the tuner then
  // re-converges from whatever map that round produced.
  update.version = node.collecting_round;
  update.round = node.collecting_round;
  update.partitions = tuned.snapshot();
  // Reliable per-peer distribution (each peer gets its own seq/ack cycle);
  // peers believed down are skipped — they catch up via the state transfer
  // on rejoin, or simply at the next round's version.
  for (std::uint32_t peer = 0; peer < nodes_.size(); ++peer) {
    if (peer == self || !believed_up(self, peer)) continue;
    send_reliable(self, peer, update);
  }
  apply_update(self, update);
}

void ProtocolCluster::apply_update(std::uint32_t self,
                                   const RegionMapUpdate& update) {
  Node& node = nodes_[self];
  if (update.version < node.version) return;  // stale or duplicate
  const core::RegionMap previous = node.map;
  if (update.version > node.version) {
    node.map = core::RegionMap::from_snapshot(update.partitions,
                                              nodes_.size());
    node.version = update.version;
  }
  // Shed protocol: file sets this node served under the previous map that
  // now belong elsewhere get announced to their acquirers (§4).
  std::uint32_t sheds = 0;
  for (std::uint32_t fs = 0; fs < file_sets_.size(); ++fs) {
    const ServerId before =
        core::locate(previous, family_, file_sets_[fs]).server;
    if (before != ServerId(self)) continue;
    const ServerId after =
        core::locate(node.map, family_, file_sets_[fs]).server;
    if (after == before) continue;
    ShedNotice notice;
    notice.file_set = fs;
    notice.from = self;
    notice.to = after.value();
    network_.send(self, after.value(), notice);
    ++sheds;
    if (on_shed) on_shed(fs, self, after.value());
  }
  if (auto* t = clock_.trace()) {
    t->emit(clock_.now(), obs::EventType::kMapApply, self,
            static_cast<std::uint32_t>(update.version), sheds);
  }
}

}  // namespace anu::proto
