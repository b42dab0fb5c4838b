// Tests for the loopback UDP transport (runtime/udp_transport.h): real
// sockets, real datagrams, same Transport semantics the protocol gets from
// the simulated Network — delivery to attached handlers, admin-down drops,
// and hostile-input tolerance (stray and malformed frames are counted and
// dropped, never dispatched).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <vector>

#include "proto/messages.h"
#include "proto/protocol.h"
#include "proto/wire.h"
#include "runtime/udp_transport.h"
#include "sim/sim_clock.h"

namespace anu::runtime {
namespace {

/// Loopback delivery is fast but not synchronous: pump until the predicate
/// holds or ~2 s pass. Returns whether it held.
template <typename Pred>
bool pump_until(UdpTransport& transport, Pred&& pred) {
  for (int i = 0; i < 2000; ++i) {
    transport.pump();
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// Sends one raw frame to `port` on loopback from an outside socket, as a
/// hostile peer would.
void inject(std::uint16_t port, const std::vector<std::uint8_t>& frame) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in dest{};
  dest.sin_family = AF_INET;
  dest.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  dest.sin_port = htons(port);
  EXPECT_EQ(::sendto(fd, frame.data(), frame.size(), 0,
                     reinterpret_cast<const sockaddr*>(&dest), sizeof(dest)),
            static_cast<ssize_t>(frame.size()));
  ::close(fd);
}

TEST(UdpTransport, BindsOneEphemeralPortPerNode) {
  UdpTransport transport(3);
  EXPECT_EQ(transport.node_count(), 3u);
  ASSERT_EQ(transport.fds().size(), 3u);
  for (std::uint32_t n = 0; n < 3; ++n) {
    EXPECT_GE(transport.fds()[n], 0);
    EXPECT_NE(transport.port_of(n), 0);
    for (std::uint32_t m = n + 1; m < 3; ++m) {
      EXPECT_NE(transport.port_of(n), transport.port_of(m));
    }
  }
}

TEST(UdpTransport, DeliversToAttachedHandler) {
  UdpTransport transport(2);
  std::vector<std::uint32_t> senders;
  std::vector<proto::Message> received;
  transport.attach(1, [&](std::uint32_t from, const proto::Message& message) {
    senders.push_back(from);
    received.push_back(message);
  });
  proto::LatencyReport report;
  report.server = 0;
  report.round = 6;
  report.report.mean_latency = 0.5;
  report.report.completed = 11;
  transport.send(0, 1, report);
  ASSERT_TRUE(pump_until(transport, [&] { return !received.empty(); }));
  EXPECT_EQ(senders, (std::vector<std::uint32_t>{0}));
  const auto* out = std::get_if<proto::LatencyReport>(&received[0]);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->round, 6u);
  EXPECT_EQ(out->report.completed, 11u);
  EXPECT_EQ(transport.datagrams_sent(), 1u);
  EXPECT_EQ(transport.datagrams_delivered(), 1u);
}

TEST(UdpTransport, BroadcastReachesAllOthers) {
  UdpTransport transport(4);
  int received = 0;
  std::vector<std::uint32_t> to_nodes;
  for (std::uint32_t n = 0; n < 4; ++n) {
    transport.attach(n, [&, n](std::uint32_t, const proto::Message&) {
      ++received;
      to_nodes.push_back(n);
    });
  }
  transport.broadcast(2, proto::Heartbeat{2});
  ASSERT_TRUE(pump_until(transport, [&] { return received >= 3; }));
  EXPECT_EQ(received, 3);
  for (const std::uint32_t n : to_nodes) EXPECT_NE(n, 2u);
}

TEST(UdpTransport, DropsAtSendWhenEitherEndpointDown) {
  UdpTransport transport(2);
  int received = 0;
  transport.attach(1, [&](std::uint32_t, const proto::Message&) {
    ++received;
  });
  transport.set_node_up(1, false);
  EXPECT_FALSE(transport.node_up(1));
  transport.send(0, 1, proto::Heartbeat{0});
  transport.set_node_up(1, true);
  transport.set_node_up(0, false);
  transport.send(0, 1, proto::Heartbeat{0});
  EXPECT_EQ(transport.datagrams_sent(), 0u);
  EXPECT_EQ(transport.datagrams_dropped(), 2u);
  transport.pump();
  EXPECT_EQ(received, 0);
}

TEST(UdpTransport, DropsInFlightWhenReceiverGoesDown) {
  UdpTransport transport(2);
  int received = 0;
  transport.attach(1, [&](std::uint32_t, const proto::Message&) {
    ++received;
  });
  transport.send(0, 1, proto::Heartbeat{0});
  // The datagram is already in the kernel queue; the node fails before the
  // event loop drains it — the pump must drop, not dispatch.
  transport.set_node_up(1, false);
  ASSERT_TRUE(
      pump_until(transport, [&] { return transport.datagrams_dropped() > 0; }));
  EXPECT_EQ(received, 0);
  EXPECT_EQ(transport.datagrams_delivered(), 0u);
}

TEST(UdpTransport, DropsStrayAndMalformedDatagrams) {
  UdpTransport transport(2);
  int received = 0;
  transport.attach(0, [&](std::uint32_t, const proto::Message&) {
    ++received;
  });
  const std::uint16_t port = transport.port_of(0);
  inject(port, {1, 2, 3});                    // shorter than the frame prefix
  inject(port, {9, 0, 0, 0, 3, 0, 0, 0, 0});  // sender id 9 out of range
  inject(port, {1, 0, 0, 0, 250});  // valid sender, unknown message tag
  ASSERT_TRUE(
      pump_until(transport, [&] { return transport.datagrams_dropped() >= 3; }));
  EXPECT_EQ(received, 0);
  EXPECT_EQ(transport.datagrams_delivered(), 0u);
  // And a well-formed frame still gets through afterwards.
  transport.send(1, 0, proto::Heartbeat{1});
  EXPECT_TRUE(pump_until(transport, [&] { return received == 1; }));
}

TEST(UdpTransport, LargeRegionMapUpdateSurvivesTheWire) {
  UdpTransport transport(2);
  proto::RegionMapUpdate got;
  bool arrived = false;
  transport.attach(1, [&](std::uint32_t, const proto::Message& message) {
    if (const auto* update =
            std::get_if<proto::RegionMapUpdate>(&message)) {
      got = *update;
      arrived = true;
    }
  });
  proto::RegionMapUpdate update;
  update.version = 3;
  for (std::uint32_t i = 0; i < 1024; ++i) {
    update.partitions.emplace_back(i % 7, std::uint64_t{i} * 1000003);
  }
  transport.send(0, 1, update);
  ASSERT_TRUE(pump_until(transport, [&] { return arrived; }));
  EXPECT_EQ(got.version, 3u);
  EXPECT_EQ(got.partitions, update.partitions);
}

TEST(UdpTransport, HostileMapUpdateIsDroppedByTheProtocol) {
  // A well-framed datagram from a valid sender id: decode accepts it, but
  // its empty partition table is no region map. The protocol node must
  // count and drop it rather than abort.
  sim::Simulation sim;
  sim::SimClock clock{sim};
  UdpTransport transport(3);
  proto::ProtocolCluster cluster(
      clock, transport, proto::ProtocolConfig{}, 3,
      [](std::uint32_t, UnitPoint) { return balance::ServerReport{1.0, 1}; });
  proto::RegionMapUpdate update;
  update.version = 1;
  std::vector<std::uint8_t> frame{1, 0, 0, 0};  // sender id 1, little-endian
  const auto payload = proto::encode(update);
  frame.insert(frame.end(), payload.begin(), payload.end());
  inject(transport.port_of(0), frame);
  EXPECT_TRUE(
      pump_until(transport, [&] { return cluster.messages_rejected() == 1; }));
  EXPECT_EQ(transport.datagrams_delivered(), 1u);
  EXPECT_EQ(cluster.version_of(0), 0u);
}

}  // namespace
}  // namespace anu::runtime
