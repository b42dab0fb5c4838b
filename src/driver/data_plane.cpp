#include "driver/data_plane.h"

namespace anu::driver {

DataPlane::DataPlane(const cluster::ClusterConfig& config,
                     const workload::Workload& replay, SimTime run_horizon,
                     obs::TraceSink* sink)
    : requests(replay.requests()),
      trace(sink),
      horizon(run_horizon > 0.0 ? run_horizon : replay.span() + 1.0),
      cluster((sim.set_trace(sink), sim), config),
      latency(cluster.server_count()),
      movement([&] {  // fills `weights`, declared just before
        for (const auto& fs : replay.file_sets()) weights.push_back(fs.weight);
        return weights;
      }()) {
  cluster.on_complete = [this](const cluster::Completion& c) { complete(c); };
}

void DataPlane::complete(const cluster::Completion& c) {
  latency.observe(c);
  histogram.add(c.latency());
  if (c.completion >= horizon * 0.5) steady_state.add(c.latency());
  if (trace) {
    trace->emit(c.completion, obs::EventType::kRequestComplete,
                c.file_set.value(), c.server.value(), 0, c.latency());
  }
}

void DataPlane::issue(ServerId target, FileSetId fs, double demand) {
  if (trace) {
    trace->emit(sim.now(), obs::EventType::kRequestIssue, fs.value(),
                target.value(), 0, demand);
  }
  cluster.submit(target, fs, demand);
}

void DataPlane::start_arrivals(std::function<void(FileSetId, double)> d) {
  dispatch = std::move(d);
  if (!requests.empty()) {
    sim.schedule_at(requests.front().arrival, [this] { arrive(); });
  }
}

void DataPlane::arrive() {
  while (cursor < requests.size()) {
    const SimTime next = requests[cursor].arrival;
    if (next > sim.now()) {
      sim.schedule_at(next, [this] { arrive(); });
      return;
    }
    const workload::Request& r = requests[cursor++];
    dispatch(r.file_set, r.demand);
  }
}

void DataPlane::schedule_membership(
    const cluster::FailureSchedule& failures,
    std::function<void(const cluster::MembershipEvent&)> on_change) {
  on_membership = std::move(on_change);
  for (const cluster::MembershipEvent& event : failures.events()) {
    sim.schedule_at(event.when, [this, event] {
      // Gray failure: membership is untouched — only the latency the
      // server reports can tell the tuner something is wrong.
      if (event.action == cluster::MembershipAction::kDegrade) {
        cluster.degrade_server(event.server, event.factor);
      } else if (event.action == cluster::MembershipAction::kRestore) {
        cluster.restore_server(event.server);
      } else {
        on_membership(event);
      }
    });
  }
}

ExperimentResult DataPlane::result(SimTime series_window) const {
  ExperimentResult result;
  result.server_count = cluster.server_count();
  result.horizon = horizon;
  result.aggregate = latency.aggregate();
  result.steady_state = steady_state;
  result.latency_histogram = histogram;
  for (std::uint32_t s = 0; s < result.server_count; ++s) {
    const auto id = ServerId(s);
    result.per_server.push_back(latency.server_stats(id));
    result.served.push_back(latency.served(id));
    result.latency_over_time.push_back(
        latency.server_series(id).windowed_mean(series_window, horizon));
    result.utilization.push_back(cluster.server(id).utilization(horizon));
  }
  result.movement = movement.rounds();
  result.total_moved = movement.total_moved();
  result.unique_moved = movement.unique_moved();
  result.percent_workload_moved = movement.percent_workload_moved();
  result.percent_unique_workload_moved =
      movement.percent_unique_workload_moved();
  result.requests_issued = cursor;
  result.requests_completed = latency.total_served();
  result.events_executed = sim.events_executed();
  result.queue = sim.queue_stats();
  return result;
}

}  // namespace anu::driver
