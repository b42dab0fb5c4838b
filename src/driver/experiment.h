// The experiment driver: wires workload -> balancer -> cluster -> simulator
// and produces everything the paper's figures report.
//
// One run replays a workload against one load-management system on one
// cluster, with the two-minute tuning loop of §5.1 ("we use two minutes as
// the load placement tuning interval ... in order to avoid over-tuning
// while still providing responsiveness") and optional scripted membership
// changes. Prescient systems receive their oracle (true upcoming-interval
// demand + true speeds) before every round; ANU and simple randomization
// ignore it.
#pragma once

#include <cstdint>
#include <vector>

#include "balance/balancer.h"
#include "cluster/cluster.h"
#include "cluster/failure_schedule.h"
#include "common/stats.h"
#include "metrics/movement_tracker.h"
#include "obs/trace_sink.h"
#include "sim/simulation.h"
#include "workload/workload.h"

namespace anu::driver {

struct ExperimentConfig {
  cluster::ClusterConfig cluster;
  /// Tuning interval (paper: two minutes).
  SimTime tuning_interval = 120.0;
  /// Simulated horizon; 0 = workload span.
  SimTime horizon = 0.0;
  /// Window width for the latency-over-time series (Figs. 4/5 resolution).
  SimTime series_window = 300.0;
  /// Extra unit-speed seconds added to a file set's first request after it
  /// moves — models the cold-cache penalty of §5.3. 0 disables.
  double move_warmup_penalty = 0.0;
  /// Feed prescient systems the true next-interval demands (read ahead from
  /// the schedule). When false they fall back to whole-run weights.
  bool oracle_lookahead = true;
  /// Control-plane pipeline latency: a tuning round's placement changes
  /// take effect this many seconds after the round runs (report collection
  /// + region-table broadcast + shed handoff — see src/proto for the
  /// message-level model). Requests keep routing on the previous placement
  /// until then. 0 = instantaneous (the paper simulator's behaviour).
  SimTime control_delay = 0.0;
  /// Scripted membership changes.
  cluster::FailureSchedule failures;
  /// Structured event tracing (docs/observability.md). Null disables; the
  /// sink is caller-owned and must outlive the run. Also installed as the
  /// Simulation's trace conduit, so cluster membership and (in protocol
  /// experiments) message events share the same timeline.
  obs::TraceSink* trace = nullptr;
};

struct ExperimentResult {
  std::size_t server_count = 0;
  SimTime horizon = 0.0;

  /// Whole-run latency over all requests (Fig. 6(a)).
  RunningStats aggregate;
  /// Latency over requests completing in the second half of the run —
  /// the post-convergence regime (ANU starts blind; Fig. 5 shows it
  /// "quickly adapts ... after several rounds of load placement tuning").
  RunningStats steady_state;
  /// Whole-run latency quantiles (log-bucketed; ~1% relative resolution).
  LogHistogram latency_histogram;
  /// Whole-run latency per server (Fig. 6(b)).
  std::vector<RunningStats> per_server;
  /// Requests served per server.
  std::vector<std::uint64_t> served;
  /// Windowed mean latency per server over time (Figs. 4/5); one entry per
  /// series_window, carrying the last value through idle windows.
  std::vector<std::vector<TimeSeries::Point>> latency_over_time;

  /// Assigned workload-weight share per server, sampled after every tuning
  /// round: row r holds (time, share_0..share_{k-1}) — the visible trace of
  /// the delegate adapting shares to capacities.
  struct ShareSample {
    SimTime when = 0.0;
    std::vector<double> share;  // fraction of total weight, sums to ~1
  };
  std::vector<ShareSample> shares_over_time;

  /// Per-tuning-round movement (Fig. 7).
  std::vector<metrics::MovementTracker::Round> movement;
  std::size_t total_moved = 0;
  std::size_t unique_moved = 0;
  double percent_workload_moved = 0.0;
  double percent_unique_workload_moved = 0.0;

  /// Replicated addressing state at end of run (§5.4).
  std::size_t shared_state_bytes = 0;

  std::vector<double> utilization;  // busy fraction per server
  std::uint64_t requests_issued = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t tuning_rounds = 0;

  /// Event-kernel counters (calendar + slab), emitted as the manifest's
  /// "sim.queue" block so a run's kernel behavior is auditable post hoc.
  sim::SimQueueStats queue;

  /// Strategy identity + per-strategy counters, emitted as the manifest's
  /// "balance" block (driver/telemetry; tables in docs/strategies.md).
  /// For redundancy dispatch the driver appends its replica-race counters
  /// (replicas_submitted / _cancelled_queued / _cancelled_in_service /
  /// _elided / _rescued) to the strategy's own.
  struct BalanceStats {
    std::string strategy;
    /// True when requests were routed per-request (dispatch strategies)
    /// rather than through a tuned placement; such runs have no
    /// shares_over_time samples and never move file sets.
    bool per_request = false;
    balance::BalanceCounters counters;
  };
  BalanceStats balance;

  /// Control-plane message accounting — populated by protocol experiments,
  /// all-zero under the instantaneous balancer drivers. The counters
  /// reconcile (docs/chaos.md): delivered + dropped + in-flight-at-horizon
  /// = sent, and acks_received <= reliable_sent + retransmits.
  struct ControlPlaneStats {
    std::uint64_t messages_sent = 0;       // transmissions put on the wire
    std::uint64_t messages_delivered = 0;
    std::uint64_t drops_endpoint_down = 0;  // sender/receiver was down
    std::uint64_t drops_injected = 0;       // chaos loss + partitions
    std::uint64_t duplicates_injected = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t reliable_sent = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t acks_received = 0;
    std::uint64_t duplicates_suppressed = 0;
    std::uint64_t retries_abandoned = 0;
    std::uint64_t messages_rejected = 0;  // failed validation, dropped
  };
  ControlPlaneStats control_plane;
};

/// Runs one experiment. The balancer is owned by the caller so callers can
/// inspect system-specific state (e.g. AnuBalancer::region_map) afterwards.
[[nodiscard]] ExperimentResult run_experiment(
    const ExperimentConfig& config, const workload::Workload& workload,
    balance::LoadBalancer& balancer);

}  // namespace anu::driver
