// The ANU control protocol at message level (paper §4).
//
// Five server nodes exchange real (simulated) messages: latency reports to
// the elected delegate, region-table broadcasts, shed notices. Watch a
// delegate crash mid-experiment — the next node takes over with nothing
// but the reports it receives, because the tuning round is a pure
// function. This is the distributed-systems story behind the single-
// process AnuBalancer used in the other examples.
// The membership timeline below is sequential code: run the simulation up
// to a point in simulated time, act, and run on.
#include <cstdio>

#include "proto/network.h"
#include "proto/protocol.h"
#include "sim/sim_clock.h"

using namespace anu;
using namespace anu::proto;

namespace {

void show(const ProtocolCluster& cluster, std::size_t servers) {
  std::printf("  delegate=s%u  versions:", cluster.delegate());
  for (std::uint32_t s = 0; s < servers; ++s) {
    std::printf(" s%u=v%llu", s,
                static_cast<unsigned long long>(cluster.version_of(s)));
  }
  std::printf("  agree=%s\n", cluster.replicas_agree() ? "yes" : "no");
  std::printf("  shares(s0-node view):");
  for (std::uint32_t s = 0; s < servers; ++s) {
    std::printf(" %.3f", cluster.map_of(0).share(ServerId(s)).to_double());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("control_plane: the section-4 protocol over a simulated "
              "network\n\n");

  constexpr std::size_t kServers = 5;
  const std::vector<double> speeds{1.0, 3.0, 5.0, 7.0, 9.0};

  sim::Simulation sim;
  sim::SimClock clock(sim);
  Network network(clock, NetworkConfig{}, kServers);
  ProtocolCluster cluster(
      clock, network, ProtocolConfig{}, kServers,
      [&](std::uint32_t s, UnitPoint share) {
        // Data-plane stand-in: latency tracks share/speed.
        return balance::ServerReport{
            share.to_double() / speeds[s] * 100.0 + 1e-6,
            static_cast<std::size_t>(share.to_double() * 1e4) + 1};
      });
  std::vector<std::string> file_sets;
  for (int i = 0; i < 50; ++i) file_sets.push_back("fs/" + std::to_string(i));
  cluster.register_file_sets(file_sets);

  std::printf("start (equal shares, version 0 everywhere):\n");
  show(cluster, kServers);

  // The experiment timeline: run_until leaves the clock at its bound, so
  // each step acts at exactly that simulated time.
  sim.run_until(120.0 * 5 + 5.0);
  std::printf("\nafter 5 tuning rounds (reports -> delegate s0 -> "
              "broadcast):\n");
  show(cluster, kServers);

  std::printf("\nkilling the delegate (server 0)...\n");
  cluster.fail_server(0);

  sim.run_until(120.0 * 10 + 5.0);
  std::printf("server 1 took over; rounds kept completing:\n");
  show(cluster, kServers);

  std::printf("\nrecovering server 0 (it rejoins with a stale replica and\n"
              "catches up via state transfer + versioned broadcasts):\n");
  cluster.recover_server(0);

  sim.run_until(120.0 * 12 + 5.0);
  show(cluster, kServers);
  sim.run_until(120.0 * 12 + 6.0);

  std::printf("\nwire totals: %llu messages, %llu bytes over %llu rounds\n",
              static_cast<unsigned long long>(network.messages_delivered()),
              static_cast<unsigned long long>(network.bytes_sent()),
              static_cast<unsigned long long>(cluster.updates_published()));
  std::printf("every byte of shared state that ever crossed the network was\n"
              "a region table: O(servers), the paper's section-5.4 point.\n");
  return 0;
}
