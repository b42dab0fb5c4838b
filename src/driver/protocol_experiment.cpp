#include "driver/protocol_experiment.h"

#include "common/assert.h"
#include "driver/data_plane.h"
#include "sim/sim_clock.h"

namespace anu::driver {

ExperimentResult run_protocol_experiment(
    const ProtocolExperimentConfig& config,
    const workload::Workload& workload) {
  const std::size_t servers = config.cluster.server_speeds.size();
  DataPlane plane(config.cluster, workload, config.horizon, config.trace);
  sim::Simulation& sim = plane.sim;
  cluster::Cluster& cluster = plane.cluster;
  sim::SimClock clock(sim);
  proto::Network network(clock, config.network, servers);
  if (config.faults != nullptr) network.set_fault_plan(config.faults);

  // Latency reports come from the real queueing servers: the protocol tick
  // pulls each server's interval statistics.
  proto::ProtocolCluster protocol(
      clock, network, config.protocol, servers,
      [&cluster](std::uint32_t s, UnitPoint /*share*/) {
        const auto report =
            cluster.server(ServerId(s)).take_interval_report();
        return balance::ServerReport{report.mean_latency, report.completed};
      });
  std::vector<std::string> names;
  for (const auto& fs : workload.file_sets()) names.push_back(fs.name);
  protocol.register_file_sets(names);

  // A shed hands the file set's queued requests to the acquirer the moment
  // the shedding node learns of the new map.
  protocol.on_shed = [&](std::uint32_t fs, std::uint32_t from,
                         std::uint32_t to) {
    if (cluster.is_up(ServerId(from)) && cluster.is_up(ServerId(to))) {
      cluster.migrate_queued(FileSetId(fs), ServerId(from), ServerId(to));
    }
    if (plane.trace) {
      plane.trace->emit(sim.now(), obs::EventType::kFileSetMove, fs, from, to);
    }
    balance::RebalanceResult one;
    one.moves.push_back({FileSetId(fs), ServerId(from), ServerId(to)});
    plane.movement.record(sim.now(), one);
  };

  // Requests are routed by the replica of a rotating contact node — the
  // client-asks-any-server model. Flushed requests (failures) re-dispatch
  // the same way.
  std::uint32_t contact = 0;
  auto next_contact = [&]() -> std::uint32_t {
    for (std::size_t tries = 0; tries < servers; ++tries) {
      contact = (contact + 1) % static_cast<std::uint32_t>(servers);
      if (cluster.is_up(ServerId(contact))) return contact;
    }
    ANU_ENSURE(false && "whole cluster down");
    return 0;
  };
  auto dispatch = [&](FileSetId fs, double demand) {
    const std::uint32_t contact_node = next_contact();
    const ServerId target =
        protocol.route_from(contact_node, workload.file_set(fs).name);
    // A stale replica can route to a down server for a short window after
    // a failure; the contact node then falls back to its delegate's view —
    // modelled here by routing from the delegate replica.
    ServerId safe = cluster.is_up(target)
                        ? target
                        : protocol.route_from(protocol.delegate(),
                                              workload.file_set(fs).name);
    // The delegate's replica is just as stale until the next round reclaims
    // the dead server's region; the live contact then serves the request
    // itself (any server can — it is simply not cache-preferred).
    if (!cluster.is_up(safe)) safe = ServerId(contact_node);
    plane.issue(safe, fs, demand);
  };
  cluster.on_flush = [&](FileSetId fs, double demand, std::uint64_t) {
    dispatch(fs, demand);
  };
  // Armed after the protocol's ticker, so at equal times the tick runs first.
  plane.start_arrivals(dispatch);

  // Membership: cluster and protocol change together; the failed node's
  // flushed requests re-dispatch via the (surviving) replicas.
  plane.schedule_membership(
      config.failures, [&](const cluster::MembershipEvent& event) {
        switch (event.action) {
          case cluster::MembershipAction::kFail:
          case cluster::MembershipAction::kRemove:
            protocol.fail_server(event.server.value());
            cluster.fail_server(event.server);
            break;
          case cluster::MembershipAction::kRecover:
            cluster.recover_server(event.server);
            protocol.recover_server(event.server.value());
            break;
          case cluster::MembershipAction::kAdd:
            // The protocol rides a fixed node set; commissioning is
            // exercised through the balancer-level driver (run_experiment).
            ANU_ENSURE(false && "kAdd unsupported in the protocol experiment");
            break;
          default:  // degrade/restore: the data plane applies them
            break;
        }
      });

  sim.run_until(plane.horizon);

  if (config.on_finish) config.on_finish(protocol, network);

  ExperimentResult result = plane.result(config.series_window);
  result.shared_state_bytes = protocol.map_of(protocol.delegate())
                                  .shared_state_bytes();
  result.tuning_rounds = protocol.updates_published();
  result.control_plane.messages_sent = network.messages_sent();
  result.control_plane.messages_delivered = network.messages_delivered();
  result.control_plane.drops_endpoint_down = network.drops_endpoint_down();
  result.control_plane.drops_injected = network.drops_injected();
  result.control_plane.duplicates_injected = network.duplicates_injected();
  result.control_plane.bytes_sent = network.bytes_sent();
  result.control_plane.reliable_sent = protocol.reliable_sent();
  result.control_plane.retransmits = protocol.retransmits();
  result.control_plane.acks_received = protocol.acks_received();
  result.control_plane.duplicates_suppressed =
      protocol.duplicates_suppressed();
  result.control_plane.retries_abandoned = protocol.retries_abandoned();
  return result;
}

}  // namespace anu::driver
