// Tests for the control-protocol simulation: network model, report/update
// flow, versioned replication, shed notices, delegate failover, forged and
// invalid messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "faults/fault_plan.h"
#include "proto/network.h"
#include "proto/protocol.h"
#include "sim/sim_clock.h"

namespace anu::proto {
namespace {

// --- network ---------------------------------------------------------------

TEST(Network, DeliversAfterDelay) {
  sim::Simulation sim;
  sim::SimClock clock(sim);
  NetworkConfig config;
  config.base_delay = 0.01;
  config.jitter = 0.0;
  Network net(clock, config, 2);
  double delivered_at = -1.0;
  net.attach(1, [&](std::uint32_t from, const Message&) {
    EXPECT_EQ(from, 0u);
    delivered_at = sim.now();
  });
  net.send(0, 1, ShedNotice{});
  sim.run_to_completion();
  EXPECT_NEAR(delivered_at, 0.01 + 12 * 8e-9, 1e-9);
  EXPECT_EQ(net.messages_delivered(), 1u);
}

TEST(Network, DropsToDownNode) {
  sim::Simulation sim;
  sim::SimClock clock(sim);
  Network net(clock, NetworkConfig{}, 2);
  int received = 0;
  net.attach(1, [&](std::uint32_t, const Message&) { ++received; });
  net.set_node_up(1, false);
  net.send(0, 1, ShedNotice{});
  sim.run_to_completion();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(Network, DropsInFlightWhenReceiverFails) {
  sim::Simulation sim;
  sim::SimClock clock(sim);
  NetworkConfig config;
  config.base_delay = 1.0;
  Network net(clock, config, 2);
  int received = 0;
  net.attach(1, [&](std::uint32_t, const Message&) { ++received; });
  net.send(0, 1, ShedNotice{});
  sim.schedule_at(0.5, [&] { net.set_node_up(1, false); });
  sim.run_to_completion();
  EXPECT_EQ(received, 0);
}

TEST(Network, BroadcastReachesAllOthers) {
  sim::Simulation sim;
  sim::SimClock clock(sim);
  Network net(clock, NetworkConfig{}, 4);
  int received = 0;
  for (std::uint32_t n = 0; n < 4; ++n) {
    net.attach(n, [&](std::uint32_t, const Message&) { ++received; });
  }
  net.broadcast(2, ShedNotice{});
  sim.run_to_completion();
  EXPECT_EQ(received, 3);
}

TEST(Network, AccountsBytes) {
  sim::Simulation sim;
  sim::SimClock clock(sim);
  Network net(clock, NetworkConfig{}, 2);
  net.attach(1, [](std::uint32_t, const Message&) {});
  RegionMapUpdate update;
  update.partitions.resize(16);
  net.send(0, 1, update);
  EXPECT_EQ(net.bytes_sent(), 24u + 16u * 12u);
}

// --- protocol ---------------------------------------------------------------

struct ProtoHarness {
  sim::Simulation sim;
  sim::SimClock clock{sim};
  Network net;
  ProtocolCluster cluster;

  explicit ProtoHarness(std::size_t servers,
                        const std::vector<double>& speeds,
                        ProtocolConfig config = {})
      : net(clock, NetworkConfig{}, servers),
        cluster(clock, net, config, servers,
                [speeds](std::uint32_t s, UnitPoint share) {
                  // Data-plane model: latency proportional to share over
                  // speed; completions proportional to share.
                  const double latency =
                      share.to_double() / speeds[s] * 100.0 + 1e-6;
                  const auto n = static_cast<std::size_t>(
                      share.to_double() * 1e4);
                  return balance::ServerReport{latency, n};
                }) {
    std::vector<std::string> names;
    for (int i = 0; i < 40; ++i) names.push_back("p/" + std::to_string(i));
    cluster.register_file_sets(names);
  }
};

TEST(Protocol, ReplicasAgreeAfterEachRound) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0});
  for (int round = 1; round <= 10; ++round) {
    h.sim.run_until(120.0 * round + 10.0);  // interval + slack for messages
    EXPECT_TRUE(h.cluster.replicas_agree()) << "round " << round;
    EXPECT_EQ(h.cluster.version_of(0), static_cast<std::uint64_t>(round));
  }
  EXPECT_EQ(h.cluster.updates_published(), 10u);
}

TEST(Protocol, SharesConvergeTowardSpeeds) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0});
  h.sim.run_until(120.0 * 60);
  const auto& map = h.cluster.map_of(4);
  EXPECT_GT(map.share(ServerId(4)).to_double(),
            map.share(ServerId(0)).to_double() * 2.0);
}

TEST(Protocol, AllNodesRouteIdentically) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0});
  h.sim.run_until(120.0 * 5 + 10.0);
  for (int i = 0; i < 40; ++i) {
    const std::string name = "p/" + std::to_string(i);
    const ServerId from0 = h.cluster.route_from(0, name);
    for (std::uint32_t s = 1; s < 5; ++s) {
      EXPECT_EQ(h.cluster.route_from(s, name), from0);
    }
  }
}

TEST(Protocol, ShedNoticesFlowToAcquirers) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0});
  h.sim.run_until(120.0 * 20);
  std::uint64_t notices = 0;
  for (std::uint32_t s = 0; s < 5; ++s) {
    notices += h.cluster.shed_notices_received(s);
  }
  // Load moves toward fast servers during convergence, so somebody must
  // have been notified of gaining file sets.
  EXPECT_GT(notices, 0u);
}

TEST(Protocol, DelegateFailoverKeepsRoundsFlowing) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0});
  h.sim.run_until(120.0 * 3 + 10.0);
  EXPECT_EQ(h.cluster.delegate(), 0u);
  const auto before = h.cluster.updates_published();
  h.cluster.fail_server(0);
  EXPECT_EQ(h.cluster.delegate(), 1u);
  h.sim.run_until(120.0 * 8 + 10.0);
  // Rounds keep completing under the new delegate and survivors agree.
  EXPECT_GT(h.cluster.updates_published(), before + 3);
  EXPECT_TRUE(h.cluster.replicas_agree());
}

TEST(Protocol, RecoveredNodeCatchesUpViaVersioning) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0});
  h.sim.run_until(120.0 * 2 + 10.0);
  h.cluster.fail_server(3);
  h.sim.run_until(120.0 * 6 + 10.0);
  // Node 3 is stale while down.
  EXPECT_LT(h.cluster.version_of(3), h.cluster.version_of(0));
  h.cluster.recover_server(3);
  h.sim.run_until(120.0 * 8 + 10.0);
  EXPECT_TRUE(h.cluster.replicas_agree());
  EXPECT_EQ(h.cluster.version_of(3), h.cluster.version_of(0));
}

TEST(Protocol, SlowNetworkStillConverges) {
  // Half a second of one-way delay (WAN-grade for a LAN protocol): rounds
  // still complete because the grace window waits out stragglers.
  sim::Simulation sim;
  sim::SimClock clock(sim);
  NetworkConfig net_config;
  net_config.base_delay = 0.5;
  net_config.jitter = 0.3;
  Network net(clock, net_config, 3);
  ProtocolConfig config;
  config.report_grace = 2.0;
  const std::vector<double> speeds{1.0, 4.0, 8.0};
  ProtocolCluster cluster(
      clock, net, config, 3, [&](std::uint32_t s, UnitPoint share) {
        return balance::ServerReport{share.to_double() / speeds[s] + 1e-6,
                                     100};
      });
  cluster.register_file_sets({"a", "b", "c", "d"});
  sim.run_until(120.0 * 20);
  EXPECT_TRUE(cluster.replicas_agree());
  EXPECT_GE(cluster.updates_published(), 18u);
}

TEST(Protocol, UpdateMessageCostIsRegionTableSized) {
  ProtoHarness h(5, {1.0, 1.0, 1.0, 1.0, 1.0});
  h.sim.run_until(130.0);
  // One round: 4 remote reports (24 B each) + 4 update broadcasts carrying
  // the 16-partition table (16 + 192 B) + shed notices. The dominant cost
  // scales with the partition table — O(servers), §5.4's argument.
  EXPECT_GE(h.net.bytes_sent(), 4u * 24 + 4u * (16 + 192));
  EXPECT_LT(h.net.bytes_sent(), 4000u);
}


TEST(Protocol, RecoveredFormerDelegateDoesNotSplitBrain) {
  // Regression: a recovered ex-delegate once resumed with a stale replica
  // and published version numbers below the cluster's, which everyone
  // rejected forever. Version-by-round plus state transfer on rejoin must
  // re-unify the replicas.
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0});
  h.sim.run_until(120.0 * 3 + 10.0);
  h.cluster.fail_server(0);                 // the delegate dies
  h.sim.run_until(120.0 * 8 + 10.0);        // s1 runs rounds 4..8
  h.cluster.recover_server(0);              // s0 is re-elected delegate
  h.sim.run_until(120.0 * 12 + 10.0);       // s0 runs rounds 9..12
  EXPECT_TRUE(h.cluster.replicas_agree());
  EXPECT_EQ(h.cluster.version_of(0), h.cluster.version_of(4));
  EXPECT_GE(h.cluster.version_of(0), 12u);
}

TEST(Protocol, VersionsTrackRounds) {
  ProtoHarness h(3, {1.0, 2.0, 4.0});
  h.sim.run_until(120.0 * 6 + 10.0);
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(h.cluster.version_of(s), 6u);
  }
}

TEST(Protocol, StateTransferCatchesUpBeforeNextRound) {
  ProtoHarness h(4, {1.0, 2.0, 4.0, 8.0});
  h.sim.run_until(120.0 * 2 + 10.0);
  h.cluster.fail_server(2);
  h.sim.run_until(120.0 * 5 + 10.0);
  h.cluster.recover_server(2);
  // Well before the next tuning round, the transfer alone has synced it.
  h.sim.run_until(120.0 * 5 + 20.0);
  EXPECT_EQ(h.cluster.version_of(2), h.cluster.version_of(0));
  EXPECT_TRUE(h.cluster.replicas_agree());
}


// --- heartbeat failure detection -------------------------------------------

// --- reliable delivery under faults ----------------------------------------

TEST(Reliability, RoundsConvergeUnderHeavyLoss) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0});
  faults::FaultPlanConfig fault_config;
  fault_config.loss = 0.2;
  faults::FaultPlan plan(fault_config);
  h.net.set_fault_plan(&plan);
  h.sim.run_until(120.0 * 10 + 20.0);
  // One in five control messages vanished, yet every round still closed:
  // retransmission carried the reports in and the map updates out.
  EXPECT_TRUE(h.cluster.replicas_agree());
  EXPECT_EQ(h.cluster.updates_published(), 10u);
  EXPECT_GT(plan.injected_losses(), 0u);
  EXPECT_GT(h.cluster.retransmits(), 0u);
  EXPECT_GT(h.cluster.acks_received(), 0u);
  // Acks only exist for reliable transmissions; the books must balance.
  EXPECT_LE(h.cluster.acks_received(),
            h.cluster.reliable_sent() + h.cluster.retransmits());
}

TEST(Reliability, DuplicatedMessagesAreSuppressedNotReapplied) {
  ProtoHarness h(4, {1.0, 2.0, 4.0, 8.0});
  faults::FaultPlanConfig fault_config;
  fault_config.duplicate = 0.5;
  faults::FaultPlan plan(fault_config);
  h.net.set_fault_plan(&plan);
  h.sim.run_until(120.0 * 8 + 20.0);
  EXPECT_TRUE(h.cluster.replicas_agree());
  EXPECT_EQ(h.cluster.updates_published(), 8u);
  EXPECT_GT(plan.duplications(), 0u);
  EXPECT_GT(h.cluster.duplicates_suppressed(), 0u);
}

TEST(Reliability, LossFreeRunsNeverRetransmit) {
  ProtoHarness h(3, {1.0, 2.0, 4.0});
  h.sim.run_until(120.0 * 5 + 20.0);
  EXPECT_GT(h.cluster.reliable_sent(), 0u);
  EXPECT_EQ(h.cluster.retransmits(), 0u);
  EXPECT_EQ(h.cluster.duplicates_suppressed(), 0u);
  EXPECT_EQ(h.cluster.retries_abandoned(), 0u);
  // Every reliable message was acked exactly once.
  EXPECT_EQ(h.cluster.acks_received(), h.cluster.reliable_sent());
}

TEST(Reliability, PendingRetriesAbandonedWhenPeerFails) {
  ProtoHarness h(4, {1.0, 2.0, 4.0, 8.0});
  // Cut all of node 3's links so everything sent to it stays pending,
  // then declare it failed: the senders must abandon, not spin forever.
  faults::FaultPlan plan{faults::FaultPlanConfig{}};
  h.net.set_fault_plan(&plan);
  h.sim.schedule_at(115.0, [&] {
    for (std::uint32_t peer = 0; peer < 3; ++peer) plan.partition(peer, 3);
  });
  h.sim.schedule_at(125.0, [&] { h.cluster.fail_server(3); });
  h.sim.run_until(120.0 * 4 + 20.0);
  EXPECT_GT(h.cluster.retries_abandoned(), 0u);
  EXPECT_TRUE(h.cluster.replicas_agree());
}

TEST(HeartbeatView, SelfAlwaysUp) {
  const HeartbeatView view(HeartbeatConfig{}, 4, 2);
  EXPECT_TRUE(view.believes_up(2, 1e9));
}

TEST(HeartbeatView, SuspectsAfterSilence) {
  HeartbeatView view(HeartbeatConfig{}, 3, 0);
  view.heard_from(1, 10.0);
  EXPECT_TRUE(view.believes_up(1, 12.0));
  EXPECT_FALSE(view.believes_up(1, 14.0));  // > 3.5 s silent
  view.heard_from(1, 14.5);                 // came back
  EXPECT_TRUE(view.believes_up(1, 15.0));
}

TEST(HeartbeatView, DelegateFollowsSuspicion) {
  HeartbeatView view(HeartbeatConfig{}, 3, 2);
  view.heard_from(0, 0.0);
  view.heard_from(1, 100.0);
  EXPECT_EQ(view.believed_delegate(1.0), 0u);
  EXPECT_EQ(view.believed_delegate(100.0), 1u);  // 0 long silent
  EXPECT_EQ(view.believed_delegate(1000.0), 2u); // everyone silent: self
}

TEST(HeartbeatView, FlappingPeerFollowsLatestEvidence) {
  HeartbeatView view(HeartbeatConfig{}, 3, 2);
  view.heard_from(0, 0.0);
  view.heard_from(1, 6.0);
  EXPECT_EQ(view.believed_delegate(1.0), 0u);
  // Node 0 goes silent past the suspicion threshold: delegate shifts to 1.
  EXPECT_EQ(view.believed_delegate(8.0), 1u);
  // It flaps back: a single fresh beacon restores it immediately.
  view.heard_from(0, 8.5);
  EXPECT_EQ(view.believed_delegate(9.0), 0u);
  // And silent again: suspicion re-arms from the latest beacon, not the
  // first one.
  view.heard_from(1, 18.0);
  EXPECT_EQ(view.believed_delegate(20.0), 1u);
}

TEST(HeartbeatView, AllPeersSuspectedElectsSelf) {
  HeartbeatView view(HeartbeatConfig{}, 4, 3);
  for (std::uint32_t p = 0; p < 3; ++p) view.heard_from(p, 10.0);
  EXPECT_EQ(view.believed_delegate(11.0), 0u);
  // Total silence: the node must still name a delegate — itself — so a
  // fully partitioned node keeps making progress instead of wedging.
  EXPECT_EQ(view.believed_delegate(1e6), 3u);
  EXPECT_EQ(view.believed_up_count(1e6), 1u);
}

TEST(HeartbeatView, UpCountTracksViews) {
  HeartbeatView view(HeartbeatConfig{}, 4, 0);
  for (std::uint32_t p = 1; p < 4; ++p) view.heard_from(p, 50.0);
  EXPECT_EQ(view.believed_up_count(51.0), 4u);
  EXPECT_EQ(view.believed_up_count(60.0), 1u);  // only self
}

ProtocolConfig heartbeat_config() {
  ProtocolConfig config;
  config.use_heartbeats = true;
  return config;
}

TEST(ProtocolHeartbeat, ConvergesLikeOracleMembership) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0}, heartbeat_config());
  h.sim.run_until(120.0 * 30);
  EXPECT_TRUE(h.cluster.replicas_agree());
  const auto& map = h.cluster.map_of(0);
  EXPECT_GT(map.share(ServerId(4)).to_double(),
            map.share(ServerId(0)).to_double() * 2.0);
}

TEST(ProtocolHeartbeat, FailureDetectedWithoutOracle) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0}, heartbeat_config());
  h.sim.run_until(120.0 * 3 + 10.0);
  const double before_share =
      h.cluster.map_of(1).share(ServerId(4)).to_double();
  EXPECT_GT(before_share, 0.0);
  h.cluster.fail_server(4);  // only kills the process/link — no oracle call
  // Within the 3.5 s suspicion threshold, peers notice; the next round
  // reclaims its region.
  h.sim.run_until(120.0 * 5 + 10.0);
  EXPECT_EQ(h.cluster.map_of(0).share(ServerId(4)).raw(), 0u);
  EXPECT_FALSE(h.cluster.believed_up(0, 4));
}

TEST(ProtocolHeartbeat, DelegateFailoverIsEmergent) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0}, heartbeat_config());
  h.sim.run_until(120.0 * 2 + 10.0);
  EXPECT_EQ(h.cluster.believed_delegate_of(3), 0u);
  const auto rounds_before = h.cluster.updates_published();
  h.cluster.fail_server(0);
  h.sim.run_until(120.0 * 6 + 10.0);
  // Every survivor's local view elected server 1; rounds kept flowing.
  for (std::uint32_t s = 1; s < 5; ++s) {
    EXPECT_EQ(h.cluster.believed_delegate_of(s), 1u) << "node " << s;
  }
  EXPECT_GT(h.cluster.updates_published(), rounds_before + 2);
  EXPECT_TRUE(h.cluster.replicas_agree());
}

TEST(ProtocolHeartbeat, RecoveryRedetected) {
  ProtoHarness h(4, {1.0, 2.0, 4.0, 8.0}, heartbeat_config());
  h.sim.run_until(120.0 * 2 + 10.0);
  h.cluster.fail_server(2);
  h.sim.run_until(120.0 * 4 + 10.0);
  EXPECT_FALSE(h.cluster.believed_up(0, 2));
  h.cluster.recover_server(2);
  // Its heartbeats resume; peers re-admit it and the delegate regrows it.
  h.sim.run_until(120.0 * 8 + 10.0);
  EXPECT_TRUE(h.cluster.believed_up(0, 2));
  EXPECT_GT(h.cluster.map_of(0).share(ServerId(2)).raw(), 0u);
  EXPECT_TRUE(h.cluster.replicas_agree());
}

// --- forged and invalid messages --------------------------------------------

/// Runs round 1 (tick at 120 s) twice: cleanly, and with node 1 sending the
/// delegate, node 0, the `injected` messages best-effort at 60 s. They land
/// mid-interval: were a report accepted, it would open round 1 early and
/// the delegate would tune on forged numbers at the grace deadline; were a
/// map update applied, node 0 would hold a table no delegate published.
/// Every injected message must be dropped and counted, leaving round 1
/// exactly as the clean run's.
void expect_all_rejected(std::vector<Message> injected) {
  const std::vector<double> speeds{1.0, 3.0, 5.0, 7.0, 9.0};
  ProtoHarness clean(5, speeds);
  clean.sim.run_until(130.0);
  ProtoHarness forged(5, speeds);
  const std::size_t count = injected.size();
  forged.clock.schedule_at(60.0, [&forged, injected] {
    for (const Message& message : injected) forged.net.send(1, 0, message);
  });
  forged.sim.run_until(130.0);

  EXPECT_EQ(forged.cluster.messages_rejected(), count);
  EXPECT_EQ(forged.cluster.updates_published(),
            clean.cluster.updates_published());
  for (std::uint32_t n = 0; n < 5; ++n) {
    EXPECT_EQ(forged.cluster.version_of(n), clean.cluster.version_of(n))
        << "node " << n;
    EXPECT_EQ(forged.cluster.map_of(n).snapshot(),
              clean.cluster.map_of(n).snapshot())
        << "node " << n;
  }
}

LatencyReport report_from(std::uint32_t server, double latency) {
  LatencyReport report;
  report.server = server;
  report.round = 1;
  report.report = balance::ServerReport{latency, 1};
  return report;
}

TEST(ForgedReport, SpoofedInRangeServerIsDropped) {
  expect_all_rejected(
      {report_from(2, 1e3), report_from(3, 1e3), report_from(4, 1e3)});
}

TEST(ForgedReport, OutOfRangeServerTouchesNoMemory) {
  // server == N is one past the delegate's per-server report table (the
  // sanitizer build catches a write there); 2^32-1 is far outside it.
  expect_all_rejected({report_from(5, 1e3), report_from(0xffffffffu, 1e3)});
}

TEST(ForgedReport, NanLatencyIsDropped) {
  // A NaN latency turns into a NaN tuner weight, which normalize_shares
  // would reject with an abort.
  expect_all_rejected({report_from(1, std::nan(""))});
}

TEST(ForgedReport, NegativeAndInfiniteLatenciesAreDropped) {
  expect_all_rejected({report_from(1, -1.0),
                       report_from(1, std::numeric_limits<double>::infinity()),
                       report_from(1, -std::numeric_limits<double>::infinity())});
}

/// A version-1 map update carrying `partitions` — newer than anything node
/// 0 holds before round 1, so it would be applied were it valid.
RegionMapUpdate update_with(core::RegionMap::Snapshot partitions) {
  RegionMapUpdate update;
  update.version = 1;
  update.round = 1;
  update.partitions = std::move(partitions);
  return update;
}

TEST(ForgedReport, MapUpdateWithEmptyTableIsDropped) {
  expect_all_rejected({update_with({})});
}

TEST(ForgedReport, MapUpdateWithMisSizedTableIsDropped) {
  // 24 partitions is no power of two; 8 is fewer than 5 servers need.
  auto table = core::RegionMap(5).snapshot();
  table.resize(24, {ServerId::kInvalidValue, 0});
  expect_all_rejected({update_with(table),
                       update_with(core::RegionMap(4).snapshot())});
}

TEST(ForgedReport, MapUpdateWithUnknownOwnerIsDropped) {
  auto table = core::RegionMap(5).snapshot();
  table.front().first = 5;  // servers are 0..4
  expect_all_rejected({update_with(table)});
}

TEST(ForgedReport, MapUpdateBreakingOccupancyIsDropped) {
  // Each table has a legal shape but breaks an invariant of §4: total
  // occupancy off half by one unit (taken from a partial partition); a free
  // partition with occupancy; a server with more than one partial partition
  // (a unit moved from its full partition into a free one, so the total
  // still holds).
  const auto valid = core::RegionMap(5).snapshot();
  const auto psize = UnitPoint::kOneRaw / valid.size();
  const auto first = [](core::RegionMap::Snapshot& table, auto pred) {
    return std::find_if(table.begin(), table.end(), pred);
  };
  const auto free = [](const auto& e) {
    return e.first == ServerId::kInvalidValue;
  };
  auto short_total = valid;
  --first(short_total, [&](const auto& e) {
      return !free(e) && e.second < psize;
    })->second;
  auto occupied_free = valid;
  first(occupied_free, free)->second = 1;
  auto two_partials = valid;
  const auto full =
      first(two_partials, [&](const auto& e) { return e.second == psize; });
  --full->second;
  *first(two_partials, free) = {full->first, 1};
  expect_all_rejected({update_with(short_total), update_with(occupied_free),
                       update_with(two_partials)});
}

}  // namespace
}  // namespace anu::proto
