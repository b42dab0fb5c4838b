#include "cluster/server.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace anu::cluster {

Server::Server(sim::Simulation& simulation, ServerId id, double speed,
               const CacheConfig& cache)
    : sim_(simulation),
      id_(id),
      nominal_speed_(speed),
      speed_(speed),
      cache_(cache) {
  ANU_REQUIRE(speed > 0.0);
  ANU_REQUIRE(cache_.cold_penalty_factor >= 1.0);
  ANU_REQUIRE(!cache_.enabled || cache_.warmup_requests > 0);
}

double Server::cache_factor(FileSetId file_set) const {
  if (!cache_.enabled) return 1.0;
  return cache_.cold_penalty_factor -
         (cache_.cold_penalty_factor - 1.0) * warmth(file_set);
}

double Server::warmth(FileSetId file_set) const {
  if (!cache_.enabled) return 1.0;
  const auto it = cache_hits_.find(file_set.value());
  if (it == cache_hits_.end()) return 0.0;
  return std::min(1.0, static_cast<double>(it->second) /
                           static_cast<double>(cache_.warmup_requests));
}

void Server::evict(FileSetId file_set) { cache_hits_.erase(file_set.value()); }

void Server::submit(FileSetId file_set, double demand, SimTime arrival) {
  enqueue(QueuedRequest{file_set, demand, arrival, 0, nullptr});
}

void Server::submit_replica(
    FileSetId file_set, double demand, std::uint64_t job_id,
    std::function<void(SimTime, const QueuedRequest&)> on_start) {
  ANU_REQUIRE(job_id != 0);
  enqueue(QueuedRequest{file_set, demand, -1.0, job_id, std::move(on_start)});
}

void Server::enqueue(QueuedRequest request) {
  ANU_REQUIRE(up_);
  request.demand *= cache_factor(request.file_set);
  ANU_REQUIRE(request.demand >= 0.0);
  if (cache_.enabled) ++cache_hits_[request.file_set.value()];
  if (request.arrival < 0.0) request.arrival = sim_.now();
  queue_.push_back(std::move(request));
  if (!busy_) start_next();
}

void Server::start_next() {
  if (queue_.empty()) return;
  busy_ = true;
  in_flight_ = std::move(queue_.front());
  queue_.pop_front();
  service_start_ = sim_.now();
  completion_event_ =
      sim_.schedule_after(in_flight_.demand / speed_, [this] { finish(); });
  if (in_flight_.on_start) in_flight_.on_start(sim_.now(), in_flight_);
}

void Server::finish() {
  busy_ = false;
  busy_time_ += sim_.now() - service_start_;
  ++completed_;
  const Completion done{id_, in_flight_.file_set, in_flight_.arrival,
                        sim_.now(), in_flight_.job_id};
  // The successor starts (and its completion is scheduled) before the
  // observer runs; the observer may submit here again.
  start_next();
  interval_.add(done.latency());
  if (on_complete) on_complete(done);
  if (!busy_ && up_ && on_idle) on_idle(id_);
}

CancelOutcome Server::cancel(std::uint64_t job_id) {
  if (job_id == 0) return CancelOutcome::kNotFound;
  if (busy_ && in_flight_.job_id == job_id) {
    completion_event_.cancel();
    busy_ = false;
    busy_time_ += sim_.now() - service_start_;  // partial service rendered
    start_next();
    if (!busy_ && on_idle) on_idle(id_);
    return CancelOutcome::kInService;
  }
  const auto it =
      std::find_if(queue_.begin(), queue_.end(), [&](const QueuedRequest& r) {
        return r.job_id == job_id;
      });
  if (it == queue_.end()) return CancelOutcome::kNotFound;
  queue_.erase(it);
  return CancelOutcome::kQueued;
}

std::vector<Server::QueuedRequest> Server::extract_queued(FileSetId file_set) {
  std::vector<QueuedRequest> taken;
  std::deque<QueuedRequest> kept;
  for (QueuedRequest& request : queue_) {
    if (request.file_set == file_set) {
      taken.push_back(std::move(request));
    } else {
      kept.push_back(std::move(request));
    }
  }
  queue_ = std::move(kept);
  return taken;
}

Server::IntervalReport Server::take_interval_report() {
  IntervalReport report{interval_.mean(), interval_.count()};
  interval_.reset();
  return report;
}

void Server::flush(const QueuedRequest& request) {
  if (on_flush) on_flush(request.file_set, request.demand, request.job_id);
}

void Server::fail() {
  up_ = false;
  if (busy_) {
    completion_event_.cancel();
    busy_ = false;
    busy_time_ += sim_.now() - service_start_;  // partial service rendered
    flush(in_flight_);
  }
  while (!queue_.empty()) {
    flush(queue_.front());
    queue_.pop_front();
  }
  cache_hits_.clear();  // a restarted server comes back cold
}

void Server::recover() {
  ANU_REQUIRE(!up_);
  ANU_ENSURE(queue_.empty() && !busy_);
  up_ = true;
  // Any gray degradation active at failure time does not survive the
  // restart: a recovered server runs at nominal speed.
  restore();
}

void Server::degrade(double factor) {
  ANU_REQUIRE(factor > 0.0 && factor <= 1.0);
  if (!up_) return;
  speed_ = nominal_speed_ * factor;
}

}  // namespace anu::cluster
