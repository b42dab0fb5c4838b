#include "driver/experiment.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/assert.h"
#include "common/clock.h"
#include "driver/data_plane.h"
#include "sim/sim_clock.h"

namespace anu::driver {

namespace {

/// Per-interval per-file-set offered demand, read ahead from the schedule —
/// the "perfect knowledge of workload properties" of §5.1.
std::vector<std::vector<double>> lookahead_demands(
    const workload::Workload& w, SimTime interval, SimTime horizon) {
  const auto intervals =
      static_cast<std::size_t>(std::ceil(horizon / interval)) + 1;
  std::vector<std::vector<double>> demand(
      intervals, std::vector<double>(w.file_set_count(), 0.0));
  for (const workload::Request& r : w.requests()) {
    auto slot = static_cast<std::size_t>(r.arrival / interval);
    slot = std::min(slot, intervals - 1);
    demand[slot][r.file_set.value()] += r.demand;
  }
  return demand;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config,
                                const workload::Workload& workload,
                                balance::LoadBalancer& balancer) {
  ANU_REQUIRE(config.tuning_interval > 0.0);
  DataPlane plane(config.cluster, workload, config.horizon, config.trace);
  sim::Simulation& sim = plane.sim;
  cluster::Cluster& cluster = plane.cluster;

  // Live-state adapter for dispatch strategies (JSQ(d) / JIQ / redundancy):
  // the balance layer sees queue lengths and speeds without depending on
  // src/cluster.
  struct LiveView final : balance::ClusterView {
    explicit LiveView(cluster::Cluster& c) : cluster(c) {}
    std::size_t server_count() const override { return cluster.server_count(); }
    bool is_up(ServerId id) const override { return cluster.is_up(id); }
    std::size_t queue_length(ServerId id) const override {
      return cluster.server(id).queue_length();
    }
    double speed(ServerId id) const override {
      return cluster.is_up(id) ? cluster.server(id).speed() : 0.0;
    }
    cluster::Cluster& cluster;
  } live_view(cluster);
  balancer.bind_cluster(&live_view);
  const bool per_request = balancer.per_request();
  cluster.on_idle = [&](ServerId s) { balancer.on_server_idle(s); };

  // Routing table: where requests actually go. With control_delay == 0 it
  // mirrors the balancer's placement instantly; otherwise a tuning round's
  // changes are committed only after the control-plane pipeline latency,
  // and requests ride the previous placement until then.
  std::vector<ServerId> routing;

  // On every committed move: redirect the file set's waiting requests to
  // its new server (the shed protocol of §4 hands pending work to the
  // acquirer) and optionally arm the cold-cache penalty.
  std::vector<double> pending_penalty(workload.file_set_count(), 0.0);
  auto commit_moves = [&](const balance::RebalanceResult& result) {
    for (const balance::FileSetMove& move : result.moves) {
      // The source is whatever the routing table says *now* — an earlier
      // in-flight round may already have moved this file set.
      const ServerId from = routing[move.file_set.value()];
      if (from == move.to) continue;
      // A target that failed while this commit was in flight is skipped;
      // the failure path already rerouted its file sets.
      if (!cluster.is_up(move.to)) continue;
      cluster.migrate_queued(move.file_set, from, move.to);
      // Traced at commit time (not decision time), so with control_delay
      // the trace shows when routing actually changed.
      if (plane.trace) {
        plane.trace->emit(sim.now(), obs::EventType::kFileSetMove,
                          move.file_set.value(), from.value(),
                          move.to.value());
      }
      routing[move.file_set.value()] = move.to;
      if (config.move_warmup_penalty > 0.0) {
        pending_penalty[move.file_set.value()] = config.move_warmup_penalty;
      }
    }
  };

  // Oracle views for prescient systems.
  const bool want_oracle = config.oracle_lookahead;
  const auto demand_matrix =
      want_oracle
          ? lookahead_demands(workload, config.tuning_interval, plane.horizon)
          : std::vector<std::vector<double>>{};
  auto oracle_for = [&](std::size_t interval_index) {
    balance::OracleView view;
    if (want_oracle && interval_index < demand_matrix.size()) {
      view.file_set_demand = demand_matrix[interval_index];
    } else {
      view.file_set_demand = plane.weights;
    }
    view.server_speeds = cluster.up_speeds();
    return view;
  };

  // Replica races for redundancy dispatch. Each multi-target decision forms
  // a group; the first replica to start (cancel-on-start) or complete
  // (cancel-on-complete) cancels its siblings through the cluster's cancel
  // handles, so exactly one completion per group reaches the latency stats.
  // A replica stranded on a failing server is dropped from its group, and a
  // group that loses every live replica re-dispatches the request.
  struct ReplicaManager {
    struct Replica {
      ServerId server;
      std::uint64_t id = 0;
      bool active = false;
    };
    struct Group {
      FileSetId fs;
      double demand = 0.0;
      balance::DispatchDecision::Cancel mode =
          balance::DispatchDecision::Cancel::kOnComplete;
      bool claimed = false;
      std::vector<Replica> replicas;
    };

    cluster::Cluster& cluster;
    std::unordered_map<std::uint64_t, Group> groups = {};
    std::unordered_map<std::uint64_t, std::uint64_t> group_of = {};  // ->gid
    std::uint64_t next_id = 1;  // job ids and group ids share one counter
    std::function<void(FileSetId, double)> redispatch = nullptr;
    std::uint64_t submitted = 0;
    std::uint64_t cancelled_queued = 0;
    std::uint64_t cancelled_in_service = 0;
    std::uint64_t elided = 0;   // never submitted: a sibling already started
    std::uint64_t rescued = 0;  // all replicas lost to failures, re-dispatched

    void cancel_losers(Group& group, std::uint64_t winner) {
      for (Replica& rep : group.replicas) {
        if (!rep.active || rep.id == winner) continue;
        switch (cluster.server(rep.server).cancel(rep.id)) {
          case cluster::CancelOutcome::kQueued: ++cancelled_queued; break;
          case cluster::CancelOutcome::kInService: ++cancelled_in_service; break;
          case cluster::CancelOutcome::kNotFound: break;
        }
        rep.active = false;
        group_of.erase(rep.id);
      }
    }
    void on_start(std::uint64_t id) {
      const auto it = group_of.find(id);
      if (it == group_of.end()) return;
      Group& group = groups.at(it->second);
      if (group.mode != balance::DispatchDecision::Cancel::kOnStart) return;
      group.claimed = true;
      cancel_losers(group, id);
    }
    void on_complete(std::uint64_t id) {
      const auto it = group_of.find(id);
      if (it == group_of.end()) return;
      const std::uint64_t gid = it->second;
      cancel_losers(groups.at(gid), id);
      group_of.erase(id);
      groups.erase(gid);
    }
    void on_lost(std::uint64_t id) {
      const auto it = group_of.find(id);
      if (it == group_of.end()) return;
      const std::uint64_t gid = it->second;
      Group& group = groups.at(gid);
      group_of.erase(id);
      bool any_active = false;
      for (Replica& rep : group.replicas) {
        if (rep.id == id) rep.active = false;
        any_active = any_active || rep.active;
      }
      if (any_active) return;
      const FileSetId fs = group.fs;
      const double demand = group.demand;
      groups.erase(gid);
      ++rescued;
      redispatch(fs, demand);
    }
    void submit(const balance::DispatchDecision& decision, FileSetId fs,
                double demand, obs::TraceSink* trace, SimTime now) {
      const std::uint64_t gid = next_id++;
      Group group;
      group.fs = fs;
      group.demand = demand;
      group.mode = decision.cancel;
      group.replicas.resize(decision.count);
      for (std::uint32_t i = 0; i < decision.count; ++i) {
        group.replicas[i].server = decision.targets[i];
        group.replicas[i].id = next_id++;
      }
      groups.emplace(gid, std::move(group));
      for (std::uint32_t i = 0; i < decision.count; ++i) {
        // Re-fetch each iteration: submit_replica can fire on_start
        // synchronously (idle server), which claims the group.
        Group& g = groups.at(gid);
        if (g.claimed) {
          ++elided;
          continue;
        }
        Replica& rep = g.replicas[i];
        rep.active = true;
        group_of[rep.id] = gid;
        ++submitted;
        if (trace) {
          trace->emit(now, obs::EventType::kRequestIssue, fs.value(),
                      rep.server.value(), 0, demand);
        }
        const std::uint64_t rid = rep.id;
        cluster.server(rep.server)
            .submit_replica(fs, demand, rid,
                            [this, rid](SimTime,
                                        const cluster::Server::QueuedRequest&) {
                              on_start(rid);
                            });
      }
    }
  } replicas{cluster};

  auto dispatch = [&](FileSetId fs, double demand) {
    if (per_request) {
      const balance::DispatchDecision decision = balancer.dispatch(fs, demand);
      ANU_REQUIRE(decision.count >= 1);
      if (decision.count == 1) {
        plane.issue(decision.targets[0], fs, demand);
      } else {
        replicas.submit(decision, fs, demand, plane.trace, sim.now());
      }
      return;
    }
    double extra = 0.0;
    std::swap(extra, pending_penalty[fs.value()]);
    plane.issue(routing[fs.value()], fs, demand + extra);
  };
  replicas.redispatch = dispatch;

  cluster.on_complete = [&](const cluster::Completion& c) {
    if (c.job_id != 0) replicas.on_complete(c.job_id);
    plane.complete(c);
  };
  // Requests stranded on a failing server re-dispatch: plain requests go
  // back through dispatch (placement is already updated); replicas are
  // dropped from their race and only re-dispatched when none survive.
  cluster.on_flush = [&](FileSetId fs, double demand, std::uint64_t job_id) {
    if (job_id != 0) {
      replicas.on_lost(job_id);
      return;
    }
    dispatch(fs, demand);
  };

  // Initial placement: prescient systems see interval 0; ANU and simple
  // randomization start blind (§4/§5.1). Dispatch strategies route each
  // arrival live and never consult the routing table.
  balancer.set_oracle(oracle_for(0));
  balancer.register_file_sets(workload.file_sets());
  routing.resize(workload.file_set_count());
  if (!per_request) {
    for (std::uint32_t fs = 0; fs < workload.file_set_count(); ++fs) {
      routing[fs] = balancer.server_for(FileSetId(fs));
    }
  }

  // Armed before the tuning timer, so at equal times arrivals run first.
  plane.start_arrivals(dispatch);

  // The tuning loop (§4): collect interval reports, delegate round, record
  // movement.
  std::uint64_t rounds = 0;
  std::vector<ExperimentResult::ShareSample> share_samples;
  sim::SimClock clock(sim);
  anu::PeriodicTimer tuner(clock, config.tuning_interval, [&](SimTime now) {
    if (now > plane.horizon) return;
    ++rounds;
    for (std::uint32_t s = 0; s < cluster.server_count(); ++s) {
      const auto id = ServerId(s);
      if (!cluster.is_up(id)) continue;
      const auto report = cluster.server(id).take_interval_report();
      balancer.report(id,
                      balance::ServerReport{report.mean_latency,
                                            report.completed});
    }
    const auto next_interval =
        static_cast<std::size_t>(std::llround(now / config.tuning_interval));
    balancer.set_oracle(oracle_for(next_interval));
    const balance::RebalanceResult result = balancer.tune();
    plane.movement.record(now, result);
    if (config.control_delay <= 0.0) {
      commit_moves(result);
    } else {
      sim.schedule_after(config.control_delay,
                         [&, result] { commit_moves(result); });
    }

    if (plane.trace) {
      const auto& round = plane.movement.rounds().back();
      plane.trace->emit(now, obs::EventType::kTuningRound,
                        static_cast<std::uint32_t>(rounds),
                        static_cast<std::uint32_t>(round.moved), 0,
                        round.moved_weight, round.cumulative_pct);
    }
    // Sample the assigned-weight share per server (the share trace of
    // ExperimentResult::shares_over_time). Dispatch strategies have no
    // placement to sample.
    if (per_request) return;
    ExperimentResult::ShareSample sample;
    sample.when = now;
    sample.share.assign(cluster.server_count(), 0.0);
    double total_weight = 0.0;
    for (std::uint32_t fs = 0; fs < workload.file_set_count(); ++fs) {
      const double w = plane.weights[fs];
      sample.share[balancer.server_for(FileSetId(fs)).value()] += w;
      total_weight += w;
    }
    if (total_weight > 0.0) {
      for (double& s : sample.share) s /= total_weight;
    }
    if (plane.trace) {
      for (std::uint32_t s = 0; s < sample.share.size(); ++s) {
        plane.trace->emit(now, obs::EventType::kRegionRetune, s, 0, 0,
                          sample.share[s]);
      }
    }
    share_samples.push_back(std::move(sample));
  });

  // Scripted membership changes. Balancer first (placement must be valid
  // before the cluster flushes queued requests back through dispatch).
  auto record_moves = [&](const balance::RebalanceResult& moves) {
    plane.movement.record(sim.now(), moves);
    commit_moves(moves);
  };
  plane.schedule_membership(
      config.failures, [&](const cluster::MembershipEvent& event) {
        switch (event.action) {
          case cluster::MembershipAction::kFail:
          case cluster::MembershipAction::kRemove:
            record_moves(balancer.on_server_failed(event.server));
            // With control_delay, routing may lag the balancer and still
            // pin a file set to the failing server the balancer never saw
            // it on; sweep every such entry onto the balancer's current
            // placement.
            if (!per_request) {
              for (std::uint32_t fs = 0; fs < routing.size(); ++fs) {
                if (routing[fs] == event.server) {
                  routing[fs] = balancer.server_for(FileSetId(fs));
                }
              }
            }
            cluster.fail_server(event.server);
            break;
          case cluster::MembershipAction::kRecover:
            cluster.recover_server(event.server);
            balancer.set_oracle(oracle_for(static_cast<std::size_t>(
                sim.now() / config.tuning_interval)));
            record_moves(balancer.on_server_recovered(event.server));
            break;
          case cluster::MembershipAction::kAdd: {
            const ServerId id = cluster.add_server(event.speed);
            plane.latency.add_server();
            balancer.set_oracle(oracle_for(static_cast<std::size_t>(
                sim.now() / config.tuning_interval)));
            record_moves(balancer.on_server_added(id));
            break;
          }
          default:  // degrade/restore: the data plane applies them
            break;
        }
      });

  sim.run_until(plane.horizon);
  tuner.stop();

  ExperimentResult result = plane.result(config.series_window);
  result.shares_over_time = std::move(share_samples);
  result.shared_state_bytes = balancer.shared_state_bytes();
  result.tuning_rounds = rounds;
  result.balance.strategy = std::string(balancer.name());
  result.balance.per_request = per_request;
  result.balance.counters = balancer.counters();
  if (replicas.submitted > 0) {
    result.balance.counters.emplace_back("replicas_submitted",
                                         replicas.submitted);
    result.balance.counters.emplace_back("replicas_cancelled_queued",
                                         replicas.cancelled_queued);
    result.balance.counters.emplace_back("replicas_cancelled_in_service",
                                         replicas.cancelled_in_service);
    result.balance.counters.emplace_back("replicas_elided", replicas.elided);
    result.balance.counters.emplace_back("replicas_rescued", replicas.rescued);
  }
  return result;
}

}  // namespace anu::driver
