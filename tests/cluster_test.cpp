// Tests for the cluster model: servers, membership, failure schedules.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.h"
#include "cluster/failure_schedule.h"

namespace anu::cluster {
namespace {

TEST(Server, ServesAndReportsInterval) {
  sim::Simulation sim;
  Server server(sim, ServerId(0), 2.0);
  server.submit(FileSetId(0), 4.0);  // 2 seconds of service
  sim.run_to_completion();
  const auto report = server.take_interval_report();
  EXPECT_EQ(report.completed, 1u);
  EXPECT_DOUBLE_EQ(report.mean_latency, 2.0);
  // Interval stats reset after the report; the completion count persists.
  const auto empty = server.take_interval_report();
  EXPECT_EQ(empty.completed, 0u);
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(Server, CompletionObserverFires) {
  sim::Simulation sim;
  Server server(sim, ServerId(3), 1.0);
  Completion seen{};
  server.on_complete = [&](const Completion& c) { seen = c; };
  server.submit(FileSetId(7), 5.0);
  sim.run_to_completion();
  EXPECT_EQ(seen.server, ServerId(3));
  EXPECT_EQ(seen.file_set, FileSetId(7));
  EXPECT_DOUBLE_EQ(seen.latency(), 5.0);
}

TEST(Server, FailFlushesThroughCallback) {
  sim::Simulation sim;
  Server server(sim, ServerId(0), 1.0);
  std::vector<std::uint32_t> flushed;
  server.on_flush = [&](FileSetId fs, double, std::uint64_t) {
    flushed.push_back(fs.value());
  };
  server.submit(FileSetId(1), 100.0);
  server.submit(FileSetId(2), 100.0);
  sim.schedule_at(1.0, [&] { server.fail(); });
  sim.run_to_completion();
  EXPECT_EQ(flushed, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_FALSE(server.is_up());
}

TEST(Server, DegradeWhileDownIsIgnored) {
  // A scripted degrade can land on a failed server (`fail 10 2` then
  // `degrade 12 2 0.5`). It changes nothing: the server recovers at its
  // nominal speed, as after any restart.
  sim::Simulation sim;
  Server server(sim, ServerId(2), 5.0);
  server.fail();
  server.degrade(0.5);
  EXPECT_FALSE(server.is_up());
  server.recover();
  EXPECT_DOUBLE_EQ(server.speed(), 5.0);
  server.degrade(0.5);  // once up again, a degrade applies
  EXPECT_DOUBLE_EQ(server.speed(), 2.5);
}

// FIFO service (paper §5.1: one first-in-first-out queue per server with a
// speed factor): service order, busy time, cancellation, failure flushes
// and the start/complete/idle observers.

TEST(FifoResource, SingleJobLatencyIsDemandOverSpeed) {
  sim::Simulation sim;
  Server res(sim, ServerId(0), 4.0);
  double completed_at = -1.0;
  res.on_complete = [&](const Completion& c) { completed_at = c.completion; };
  res.submit(FileSetId(0), 8.0);
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(completed_at, 2.0);  // 8 units / speed 4
  EXPECT_EQ(res.requests_served(), 1u);
}

TEST(FifoResource, JobsQueueFifo) {
  sim::Simulation sim;
  Server res(sim, ServerId(0), 1.0);
  std::vector<std::uint32_t> done;
  res.on_complete = [&](const Completion& c) {
    done.push_back(c.file_set.value());
  };
  for (std::uint32_t i = 0; i < 3; ++i) res.submit(FileSetId(i), 1.0);
  sim.run_to_completion();
  EXPECT_EQ(done, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(FifoResource, QueueingLatencyAccumulates) {
  sim::Simulation sim;
  Server res(sim, ServerId(0), 1.0);
  std::vector<double> latencies;
  res.on_complete = [&](const Completion& c) {
    latencies.push_back(c.latency());
  };
  for (int i = 0; i < 3; ++i) res.submit(FileSetId(0), 2.0);
  sim.run_to_completion();
  ASSERT_EQ(latencies.size(), 3u);
  EXPECT_DOUBLE_EQ(latencies[0], 2.0);
  EXPECT_DOUBLE_EQ(latencies[1], 4.0);
  EXPECT_DOUBLE_EQ(latencies[2], 6.0);
}

TEST(FifoResource, HeterogeneousSpeedMatchesPaperModel) {
  // Paper §5.1: same request costs T on speed-1 and T/9 on speed-9.
  sim::Simulation sim;
  Server slow(sim, ServerId(0), 1.0);
  Server fast(sim, ServerId(1), 9.0);
  double slow_done = 0.0, fast_done = 0.0;
  slow.on_complete = [&](const Completion& c) { slow_done = c.completion; };
  fast.on_complete = [&](const Completion& c) { fast_done = c.completion; };
  slow.submit(FileSetId(0), 9.0);
  fast.submit(FileSetId(0), 9.0);
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(slow_done, 9.0);
  EXPECT_DOUBLE_EQ(fast_done, 1.0);
}

TEST(FifoResource, SpeedChangeAppliesToNextService) {
  sim::Simulation sim;
  Server res(sim, ServerId(0), 2.0);
  res.degrade(0.5);  // serve at speed 1 until restored to 2
  std::vector<double> completions;
  res.on_complete = [&](const Completion& c) {
    completions.push_back(c.completion);
  };
  res.submit(FileSetId(0), 1.0);
  res.submit(FileSetId(0), 1.0);
  sim.schedule_at(0.5, [&] { res.restore(); });
  sim.run_to_completion();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_DOUBLE_EQ(completions[0], 1.0);  // started before the change
  EXPECT_DOUBLE_EQ(completions[1], 1.5);  // second runs at speed 2
}

TEST(FifoResource, FailFlushesQueueAndInflight) {
  sim::Simulation sim;
  Server res(sim, ServerId(0), 1.0);
  int completed = 0;
  std::vector<std::uint32_t> flushed;
  res.on_complete = [&](const Completion&) { ++completed; };
  res.on_flush = [&](FileSetId fs, double, std::uint64_t) {
    flushed.push_back(fs.value());
  };
  for (std::uint32_t i = 0; i < 3; ++i) res.submit(FileSetId(i), 10.0);
  sim.schedule_at(1.0, [&] { res.fail(); });
  sim.run_to_completion();
  EXPECT_EQ(completed, 0);
  EXPECT_EQ(flushed, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_FALSE(res.is_up());
}

TEST(FifoResource, RecoverAfterFail) {
  sim::Simulation sim;
  Server res(sim, ServerId(0), 1.0);
  res.submit(FileSetId(0), 10.0);
  sim.schedule_at(1.0, [&] {
    res.fail();
    res.recover();
    res.submit(FileSetId(1), 1.0);
  });
  sim.run_to_completion();
  EXPECT_TRUE(res.is_up());
  EXPECT_EQ(res.requests_served(), 1u);
}

TEST(FifoResource, UtilizationTracksBusyTime) {
  sim::Simulation sim;
  Server res(sim, ServerId(0), 2.0);
  res.submit(FileSetId(0), 8.0);  // 4 seconds of service
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(res.busy_time(), 4.0);
  EXPECT_DOUBLE_EQ(res.utilization(10.0), 0.4);
}

TEST(FifoResource, CompletionCanResubmit) {
  sim::Simulation sim;
  Server res(sim, ServerId(0), 1.0);
  int completions = 0;
  res.on_complete = [&](const Completion&) {
    if (++completions < 3) res.submit(FileSetId(0), 1.0);
  };
  res.submit(FileSetId(0), 1.0);
  sim.run_to_completion();
  EXPECT_EQ(completions, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(FifoResource, ExtractQueuedLeavesInFlight) {
  sim::Simulation sim;
  Server res(sim, ServerId(0), 1.0);
  res.submit(FileSetId(7), 10.0);  // starts service immediately
  res.submit(FileSetId(7), 1.0);
  res.submit(FileSetId(8), 1.0);
  const auto taken = res.extract_queued(FileSetId(7));
  ASSERT_EQ(taken.size(), 1u);  // only the queued file-set-7 request
  EXPECT_EQ(res.queue_length(), 2u);  // in-flight + remaining file set 8
}

TEST(FifoResource, ExtractQueuedPreservesArrivalTimes) {
  sim::Simulation sim;
  Server res(sim, ServerId(0), 1.0);
  res.submit(FileSetId(0), 10.0);
  sim.schedule_at(2.5, [&] { res.submit(FileSetId(1), 1.0); });
  sim.run_until(3.0);
  const auto taken = res.extract_queued(FileSetId(1));
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_DOUBLE_EQ(taken[0].arrival, 2.5);
}

TEST(FifoResource, PresetArrivalPreserved) {
  sim::Simulation sim;
  Server res(sim, ServerId(0), 1.0);
  double latency = 0.0;
  res.on_complete = [&](const Completion& c) { latency = c.latency(); };
  sim.schedule_at(5.0, [&] {
    // A migrated request keeps its original arrival.
    res.submit(FileSetId(0), 1.0, 2.0);
  });
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(latency, 4.0);  // waited 3 (elsewhere) + 1 service
}

TEST(FifoResource, BusyTimePartialAtObservation) {
  sim::Simulation sim;
  Server res(sim, ServerId(0), 1.0);
  res.submit(FileSetId(0), 10.0);
  sim.run_until(4.0);
  EXPECT_DOUBLE_EQ(res.busy_time(), 4.0);  // only service actually rendered
  EXPECT_DOUBLE_EQ(res.utilization(4.0), 1.0);
}

TEST(FifoResource, FailAccountsPartialService) {
  sim::Simulation sim;
  Server res(sim, ServerId(0), 2.0);
  res.submit(FileSetId(0), 10.0);  // 5s service at speed 2
  sim.schedule_at(2.0, [&] { res.fail(); });
  sim.run_until(8.0);
  EXPECT_DOUBLE_EQ(res.busy_time(), 2.0);
}

TEST(FifoResource, CancelQueuedRemovesSilently) {
  sim::Simulation sim;
  Server res(sim, ServerId(0), 1.0);
  int completions = 0;
  int flushes = 0;
  res.on_complete = [&](const Completion&) { ++completions; };
  res.on_flush = [&](FileSetId, double, std::uint64_t) { ++flushes; };
  res.submit(FileSetId(0), 4.0);
  res.submit_replica(FileSetId(1), 4.0, 7, nullptr);
  EXPECT_EQ(res.queue_length(), 2u);

  EXPECT_EQ(res.cancel(7), CancelOutcome::kQueued);
  EXPECT_EQ(res.queue_length(), 1u);
  sim.run_to_completion();
  // Only the uncancelled request completed; the cancelled one never
  // surfaced through on_complete or on_flush.
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(flushes, 0);
  EXPECT_EQ(res.requests_served(), 1u);
}

TEST(FifoResource, CancelInServiceAbortsAndStartsNext) {
  sim::Simulation sim;
  Server res(sim, ServerId(0), 1.0);
  std::vector<std::uint32_t> done;
  res.on_complete = [&](const Completion& c) {
    done.push_back(c.file_set.value());
  };
  res.submit_replica(FileSetId(1), 10.0, 1, nullptr);
  res.submit(FileSetId(2), 2.0);

  sim.schedule_at(3.0, [&] {
    EXPECT_EQ(res.cancel(1), CancelOutcome::kInService);
    // The next waiting request takes over immediately.
    EXPECT_TRUE(res.busy());
  });
  sim.run_to_completion();
  // File set 1's completion never fires; file set 2 starts at t=3 and
  // finishes at t=5.
  EXPECT_EQ(done, (std::vector<std::uint32_t>{2}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  // Partial service (3s) plus the follow-up request (2s) count as busy time.
  EXPECT_DOUBLE_EQ(res.busy_time(), 5.0);
}

TEST(FifoResource, CancelUnknownIdIsNotFound) {
  sim::Simulation sim;
  Server res(sim, ServerId(0), 1.0);
  EXPECT_EQ(res.cancel(42), CancelOutcome::kNotFound);
  res.submit_replica(FileSetId(0), 1.0, 5, nullptr);
  EXPECT_EQ(res.cancel(6), CancelOutcome::kNotFound);
  EXPECT_EQ(res.cancel(5), CancelOutcome::kInService);
}

TEST(FifoResource, OnStartFiresSynchronouslyWhenIdle) {
  sim::Simulation sim;
  Server res(sim, ServerId(0), 2.0);
  bool started = false;
  res.submit_replica(FileSetId(0), 4.0, 1,
                     [&](SimTime t, const Server::QueuedRequest& request) {
                       started = true;
                       EXPECT_DOUBLE_EQ(t, 0.0);
                       EXPECT_EQ(request.demand, 4.0);
                     });
  // The server was idle: service began inside submit_replica() itself.
  EXPECT_TRUE(started);
}

TEST(FifoResource, OnStartFiresAtServiceStartWhenQueued) {
  sim::Simulation sim;
  Server res(sim, ServerId(0), 1.0);
  res.submit(FileSetId(0), 3.0);
  SimTime started_at = -1.0;
  res.submit_replica(
      FileSetId(1), 1.0, 1,
      [&](SimTime t, const Server::QueuedRequest&) { started_at = t; });
  EXPECT_DOUBLE_EQ(started_at, -1.0);  // still waiting
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(started_at, 3.0);  // when the first request finished
}

TEST(FifoResource, OnIdleFiresOnDrainNotOnFailure) {
  sim::Simulation sim;
  Server res(sim, ServerId(0), 1.0);
  int idles = 0;
  res.on_idle = [&](ServerId) { ++idles; };
  EXPECT_EQ(idles, 0);  // initial idle state does not count

  res.submit(FileSetId(0), 2.0);
  sim.run_to_completion();
  EXPECT_EQ(idles, 1);  // completion drained the queue

  res.submit_replica(FileSetId(1), 5.0, 9, nullptr);
  EXPECT_EQ(res.cancel(9), CancelOutcome::kInService);
  EXPECT_EQ(idles, 2);  // cancellation drained the queue

  res.submit(FileSetId(2), 5.0);
  res.fail();
  EXPECT_EQ(idles, 2);  // fail() is not an idle transition
  res.recover();
  EXPECT_EQ(idles, 2);
}

TEST(Cluster, PaperConfiguration) {
  sim::Simulation sim;
  Cluster c(sim, paper_cluster());
  EXPECT_EQ(c.server_count(), 5u);
  EXPECT_DOUBLE_EQ(c.total_capacity(), 25.0);
  EXPECT_DOUBLE_EQ(c.server(ServerId(0)).speed(), 1.0);
  EXPECT_DOUBLE_EQ(c.server(ServerId(4)).speed(), 9.0);
}

TEST(Cluster, FailureAffectsCapacityAndUpCount) {
  sim::Simulation sim;
  Cluster c(sim, paper_cluster());
  c.fail_server(ServerId(4));
  EXPECT_EQ(c.up_count(), 4u);
  EXPECT_DOUBLE_EQ(c.total_capacity(), 16.0);
  EXPECT_DOUBLE_EQ(c.up_speeds()[4], 0.0);
  c.recover_server(ServerId(4));
  EXPECT_EQ(c.up_count(), 5u);
}

TEST(Cluster, AddServerGetsNextId) {
  sim::Simulation sim;
  Cluster c(sim, paper_cluster());
  const ServerId id = c.add_server(4.0);
  EXPECT_EQ(id, ServerId(5));
  EXPECT_EQ(c.server_count(), 6u);
  EXPECT_DOUBLE_EQ(c.total_capacity(), 29.0);
}

TEST(Cluster, CompletionForwardedToObserver) {
  sim::Simulation sim;
  Cluster c(sim, paper_cluster());
  int completions = 0;
  c.on_complete = [&](const Completion&) { ++completions; };
  c.submit(ServerId(2), FileSetId(0), 1.0);
  sim.run_to_completion();
  EXPECT_EQ(completions, 1);
}

TEST(FailureSchedule, RandomFailRecoverIsWellFormed) {
  const auto schedule =
      FailureSchedule::random_fail_recover(1, 5, 4, 4000.0, 100.0);
  ASSERT_EQ(schedule.events().size(), 8u);
  double last = 0.0;
  for (std::size_t i = 0; i < schedule.events().size(); i += 2) {
    const auto& fail = schedule.events()[i];
    const auto& recover = schedule.events()[i + 1];
    EXPECT_EQ(fail.action, MembershipAction::kFail);
    EXPECT_EQ(recover.action, MembershipAction::kRecover);
    EXPECT_EQ(fail.server, recover.server);
    EXPECT_DOUBLE_EQ(recover.when - fail.when, 100.0);
    EXPECT_GE(fail.when, last);
    last = recover.when;
  }
}

TEST(FailureSchedule, AddEnforcesOrder) {
  FailureSchedule schedule;
  schedule.add({10.0, MembershipAction::kFail, ServerId(0), 0.0});
  EXPECT_DEATH(
      schedule.add({5.0, MembershipAction::kRecover, ServerId(0), 0.0}),
      "precondition");
}

}  // namespace
}  // namespace anu::cluster
