// A metadata file server in the shared-disk cluster model.
//
// Paper §3: in a shared-disk file system cluster the file servers carry the
// metadata workload only (data I/O goes directly to the shared disks over
// the SAN), so a server is modelled as a FIFO queue with a speed factor —
// paper §5.1: "servers use a first-in-first-out queuing discipline for
// workload", and "Servers 0..4 have processing power 1, 3, 5, 7, 9; if the
// least powerful server consumes time T for a metadata request, the most
// powerful consumes T/9." A request carries a service *demand* in
// seconds-of-work-at-unit-speed; the server serves one request at a time in
// arrival order and divides the demand by its current speed factor.
//
// Each server keeps the per-tuning-interval latency statistic it reports to
// the delegate (§4: "each server monitors its performance and produces a
// performance metric over a chosen time interval ... we use latency").
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "sim/simulation.h"

namespace anu::cluster {

/// Cold-cache model (paper §5.3): "The releasing server needs to flush its
/// cache ... The acquiring server must initialize the file set [and]
/// starts with a cold cache, which hinders initial performance."
///
/// A server serves a file set's requests at `cold_penalty_factor` times the
/// base demand while its cache for that file set is cold; the penalty
/// decays linearly over the first `warmup_requests` requests. Shedding a
/// file set flushes its cache entry (evict), so re-acquiring starts cold.
struct CacheConfig {
  bool enabled = false;
  /// Requests until a file set's working set is fully cached.
  std::uint32_t warmup_requests = 20;
  /// Demand multiplier at fully-cold (>= 1).
  double cold_penalty_factor = 2.0;
};

/// Completion record handed to the cluster's observer.
struct Completion {
  ServerId server;
  FileSetId file_set;
  SimTime arrival;
  SimTime completion;
  /// Nonzero for replicas of a redundant dispatch (submit_replica); the
  /// driver uses it to find the replica group the winner belongs to.
  std::uint64_t job_id = 0;
  [[nodiscard]] double latency() const { return completion - arrival; }
};

/// What cancel() found (and removed).
enum class CancelOutcome {
  kNotFound,   // no request with that id here
  kQueued,     // removed while still waiting — no service wasted
  kInService,  // aborted mid-service — partial work counts as busy time
};

class Server {
 public:
  /// A request waiting for (or in) service: plain data, plus the replica's
  /// on_start hook when it has one.
  struct QueuedRequest {
    FileSetId file_set;
    /// Seconds of work at speed 1.0, cold-cache penalty included.
    double demand = 0.0;
    SimTime arrival = 0.0;
    /// Cancellation id: 0 for plain requests, nonzero for replicas.
    std::uint64_t job_id = 0;
    /// Fires when service begins (possibly synchronously inside
    /// submit_replica when the server is idle). Must not cancel the request
    /// it fires for. Empty for plain requests.
    std::function<void(SimTime, const QueuedRequest&)> on_start;
  };

  Server(sim::Simulation& simulation, ServerId id, double speed,
         const CacheConfig& cache = {});

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] ServerId id() const { return id_; }
  [[nodiscard]] double speed() const { return speed_; }
  [[nodiscard]] bool is_up() const { return up_; }
  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] std::size_t queue_length() const {
    return queue_.size() + (busy_ ? 1 : 0);
  }

  /// Enqueues a metadata request (service starts at once if idle); the
  /// on_complete observer fires at completion time. A non-negative
  /// `arrival` preserves the request's original arrival time (used when a
  /// queued request migrates with its file set); negative means now. The
  /// server must be up.
  void submit(FileSetId file_set, double demand, SimTime arrival = -1.0);

  /// Enqueues one replica of a redundant dispatch (docs/strategies.md).
  /// `job_id` (nonzero, unique across the run) identifies the replica for
  /// cancel(); `on_start` (may be empty) fires when its service begins —
  /// possibly synchronously inside this call when the server is idle —
  /// which is the driver's cancel-on-start hook. The replica's Completion
  /// carries job_id so the driver can settle the group.
  void submit_replica(
      FileSetId file_set, double demand, std::uint64_t job_id,
      std::function<void(SimTime, const QueuedRequest&)> on_start);

  /// Cancels the replica with nonzero id `job_id`: a waiting replica is
  /// dropped, an in-service one is aborted (its completion event is
  /// cancelled, the partial work still counts as busy time — the price of
  /// redundancy — and the next waiting request starts). Cancelled replicas
  /// never reach the latency statistics, on_complete or on_flush.
  CancelOutcome cancel(std::uint64_t job_id);

  /// Removes and returns all waiting requests of one file set (the
  /// in-flight one, if any, keeps running — its service has started); the
  /// paper's shed protocol redirects pending work to the acquiring server.
  std::vector<QueuedRequest> extract_queued(FileSetId file_set);

  /// Interval statistics: latency of requests completed since the last
  /// take_interval_report() call. This is the number reported to the
  /// delegate each tuning round.
  struct IntervalReport {
    double mean_latency = 0.0;
    std::size_t completed = 0;
  };
  IntervalReport take_interval_report();

  /// Requests completed over the whole run (cancelled replicas excluded).
  [[nodiscard]] std::uint64_t requests_served() const { return completed_; }
  /// Busy time accrues at completion (or failure/cancel/observation time
  /// for the in-flight request), so a request straddling the observation
  /// instant counts only the service actually rendered — utilization never
  /// exceeds 1.
  [[nodiscard]] double busy_time() const {
    return busy_time_ + (busy_ ? sim_.now() - service_start_ : 0.0);
  }
  [[nodiscard]] double utilization(SimTime horizon) const {
    return horizon > 0.0 ? busy_time() / horizon : 0.0;
  }

  /// Failure aborts the in-flight request and flushes the queue through
  /// `on_flush`, in queue order; submitting to a failed server is a
  /// contract violation until recover(). Failure also drops all cache
  /// warmth (a restarted server is cold) and recovery comes back idle, at
  /// nominal speed.
  void fail();
  void recover();

  /// Gray failure (docs/chaos.md): the server stays up — it heartbeats,
  /// reports, and keeps serving — but at `factor` times its nominal speed
  /// (0 < factor <= 1). Takes effect at the next service start; the
  /// in-flight request finishes at its already-scheduled time. restore()
  /// returns it to nominal. A down server ignores degrade(): it comes back
  /// at nominal speed when it recovers.
  void degrade(double factor);
  void restore() { speed_ = nominal_speed_; }

  /// Flushes the cache entry of a shed file set (§5.3). No-op when the
  /// cache model is disabled or the file set was never served here.
  void evict(FileSetId file_set);
  /// Current warmth in [0, 1]: 0 = fully cold, 1 = fully warm.
  [[nodiscard]] double warmth(FileSetId file_set) const;

  /// Observers (wired by the Cluster). on_complete fires after the next
  /// waiting request has started. on_flush reports the flushed request's
  /// cancellation id (0 for plain requests) so the driver can tell a
  /// stranded replica from a request it must re-dispatch. on_idle fires
  /// when a completion or cancellation drains the queue while the server is
  /// up — the idle-token feed for JIQ-style dispatchers — never for the
  /// initial idle state or on fail()/recover().
  std::function<void(const Completion&)> on_complete;
  std::function<void(FileSetId, double demand, std::uint64_t job_id)> on_flush;
  std::function<void(ServerId)> on_idle;

 private:
  void enqueue(QueuedRequest request);
  void start_next();
  void finish();
  void flush(const QueuedRequest& request);
  [[nodiscard]] double cache_factor(FileSetId file_set) const;

  sim::Simulation& sim_;
  ServerId id_;
  double nominal_speed_;
  double speed_;
  bool up_ = true;
  bool busy_ = false;
  std::deque<QueuedRequest> queue_;
  QueuedRequest in_flight_;
  SimTime service_start_ = 0.0;
  sim::EventHandle completion_event_;
  std::uint64_t completed_ = 0;
  double busy_time_ = 0.0;
  CacheConfig cache_;
  std::unordered_map<std::uint32_t, std::uint32_t> cache_hits_;
  RunningStats interval_;
};

}  // namespace anu::cluster
