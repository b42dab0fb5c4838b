// Tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.h"

namespace anu::sim {
namespace {

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, SimultaneousEventsFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run_to_completion();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, ClockAdvancesToEventTime) {
  Simulation sim;
  double seen = -1.0;
  sim.schedule_at(5.5, [&] { seen = sim.now(); });
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(seen, 5.5);
}

TEST(Simulation, ScheduleAfterUsesCurrentTime) {
  Simulation sim;
  double seen = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_after(3.0, [&] { seen = sim.now(); });
  });
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(Simulation, RunUntilStopsAtHorizon) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  const auto ran = sim.run_until(5.0);
  EXPECT_EQ(ran, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulation, EventExactlyAtHorizonRuns) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(5.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  int fired = 0;
  auto handle = sim.schedule_at(1.0, [&] { ++fired; });
  handle.cancel();
  EXPECT_TRUE(handle.cancelled());
  sim.run_to_completion();
  EXPECT_EQ(fired, 0);
}

TEST(Simulation, CancelFromInsideEarlierEvent) {
  Simulation sim;
  int fired = 0;
  auto victim = sim.schedule_at(2.0, [&] { ++fired; });
  sim.schedule_at(1.0, [&] { victim.cancel(); });
  sim.run_to_completion();
  EXPECT_EQ(fired, 0);
}

TEST(Simulation, StopHaltsLoop) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.run_to_completion();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulation, EventsExecutedCounter) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
  sim.run_to_completion();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulation, PreRunStopIsHonored) {
  // Regression: a stop() issued outside a run used to be cleared silently
  // at the top of run_until, so the next run proceeded as if the request
  // never happened. It must instead halt that run before its first event.
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.stop();
  EXPECT_EQ(sim.run_until(5.0), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);  // clock untouched by a stopped run
  EXPECT_EQ(sim.pending_events(), 1u);
  // The request is consumed: the next run proceeds normally.
  EXPECT_EQ(sim.run_until(5.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulation, SelfCancelDuringInvokeDoesNotLeakToNextTenant) {
  // An action cancelling its own handle while running marks a slot that is
  // recycled immediately afterwards; the flag must not carry over and
  // silently cancel the slot's next tenant.
  Simulation sim;
  EventHandle self;
  int fired = 0;
  self = sim.schedule_at(1.0, [&] { self.cancel(); });
  sim.run_to_completion();
  sim.schedule_at(2.0, [&] { ++fired; });  // reuses the recycled slot
  sim.run_to_completion();
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, SlabSlotsAreRecycled) {
  // Sequential schedule/run cycles must reuse one slot, not grow the slab.
  Simulation sim;
  for (int i = 0; i < 1000; ++i) {
    sim.schedule_at(static_cast<double>(i), [] {});
    sim.run_until(static_cast<double>(i));
  }
  EXPECT_EQ(sim.queue_stats().slab_high_water, 1u);
}

TEST(Simulation, QueueStatsAreConsistent) {
  Simulation sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(sim.schedule_at(static_cast<double>(i % 10), [] {}));
  }
  for (int i = 0; i < 100; i += 2) {
    handles[static_cast<std::size_t>(i)].cancel();
  }
  sim.run_to_completion();
  const SimQueueStats stats = sim.queue_stats();
  EXPECT_EQ(stats.scheduled, 100u);
  EXPECT_EQ(stats.executed, 50u);
  EXPECT_EQ(stats.cancelled_skipped, 50u);
  EXPECT_EQ(stats.max_pending, 100u);
  EXPECT_EQ(stats.slab_high_water, 100u);
  // Indices sharing a timestamp share its parity, so odd timestamps keep
  // all ten of their events live after the even-index cancellations.
  EXPECT_EQ(stats.max_simultaneous, 10u);
  EXPECT_EQ(stats.executed + stats.cancelled_skipped, stats.scheduled);
}

TEST(Simulation, LargeSimultaneousBatchStaysFifo) {
  // Thousands of events at one timestamp: the ladder cannot subdivide the
  // range, so ordering rests entirely on the seq tie-break.
  Simulation sim;
  std::vector<int> order;
  order.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run_to_completion();
  ASSERT_EQ(order.size(), 4096u);
  for (int i = 0; i < 4096; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(sim.queue_stats().max_simultaneous, 4096u);
}

TEST(Simulation, CancelAfterFireIsNoop) {
  Simulation sim;
  int fired = 0;
  auto handle = sim.schedule_at(1.0, [&] { ++fired; });
  sim.run_to_completion();
  EXPECT_EQ(fired, 1);
  handle.cancel();  // must not crash or double-count
  EXPECT_TRUE(handle.cancelled());
}

TEST(Simulation, SchedulingInThePastAborts) {
  Simulation sim;
  sim.schedule_at(5.0, [] {});
  sim.run_to_completion();
  EXPECT_DEATH(sim.schedule_at(1.0, [] {}), "precondition");
}

TEST(Simulation, RunUntilIsResumable) {
  Simulation sim;
  std::vector<int> fired;
  sim.schedule_at(1.0, [&] { fired.push_back(1); });
  sim.schedule_at(3.0, [&] { fired.push_back(3); });
  sim.run_until(2.0);
  EXPECT_EQ(fired, (std::vector<int>{1}));
  sim.run_until(4.0);
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(Simulation, ClockAdvancesToHorizonWithoutEvents) {
  Simulation sim;
  sim.run_until(42.0);
  EXPECT_DOUBLE_EQ(sim.now(), 42.0);
}

TEST(Simulation, DeterministicUnderHeavyInterleaving) {
  auto run = [] {
    Simulation sim;
    std::vector<std::uint64_t> order;
    for (std::uint64_t i = 0; i < 200; ++i) {
      sim.schedule_at(static_cast<double>(i % 7), [&order, i] {
        order.push_back(i);
      });
    }
    sim.run_to_completion();
    return order;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace anu::sim
