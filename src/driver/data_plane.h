// The data plane both experiment drivers share: the simulator that replays
// a workload against a load manager (§5.1). run_experiment and
// run_protocol_experiment add only their control plane on top of it.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "driver/experiment.h"
#include "metrics/latency_tracker.h"

namespace anu::driver {

struct DataPlane {
  /// `run_horizon` 0 = the workload span. The sink is attached before the
  /// cluster is built, so the initial server_add roster is traced too.
  DataPlane(const cluster::ClusterConfig& config,
            const workload::Workload& replay, SimTime run_horizon,
            obs::TraceSink* sink);
  // Scheduled events and cluster callbacks hold `this`.
  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  /// Completion accounting: latency, histogram, steady state (second half
  /// of the horizon), request_complete. The default cluster.on_complete.
  void complete(const cluster::Completion& c);
  /// Submits one request to `target`, traced as request_issue.
  void issue(ServerId target, FileSetId fs, double demand);
  /// Arms the arrival cursor: one in-flight event hands each due request to
  /// `dispatch`, then arms the next arrival (calendar stays O(servers)).
  void start_arrivals(std::function<void(FileSetId, double)> dispatch);
  /// Schedules the scripted membership changes: degrade and restore are
  /// applied here, the rest go to `on_change`.
  void schedule_membership(
      const cluster::FailureSchedule& failures,
      std::function<void(const cluster::MembershipEvent&)> on_change);
  /// The result fields both drivers fill; control-plane fields are unset.
  [[nodiscard]] ExperimentResult result(SimTime series_window) const;

  const std::vector<workload::Request>& requests;
  obs::TraceSink* const trace;
  const SimTime horizon;
  sim::Simulation sim;
  cluster::Cluster cluster;
  metrics::LatencyTracker latency;
  std::vector<double> weights;  // per file set
  metrics::MovementTracker movement;

 private:
  void arrive();

  RunningStats steady_state;
  LogHistogram histogram;
  std::size_t cursor = 0;  // next request to arrive = requests issued
  std::function<void(FileSetId, double)> dispatch;
  std::function<void(const cluster::MembershipEvent&)> on_membership;
};

}  // namespace anu::driver
